"""The check that a SCHEMA.md names every data file written beside it."""


def assert_schema_names_outputs(outdir):
    """Every *.csv and *.json in outdir is named, in backticks, in its SCHEMA.md."""
    schema = (outdir / "SCHEMA.md").read_text()
    written = [p.name for p in outdir.iterdir() if p.suffix in (".csv", ".json")]
    assert [name for name in written if f"`{name}`" not in schema] == []
