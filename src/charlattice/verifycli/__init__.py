"""The `charlattice` command line (`cli`), its verification cases (`cases`)
and the character-file format (`charfile`).  Nothing is imported here, so a
command loads only what it runs and `python -m ...cli` does not warn."""
