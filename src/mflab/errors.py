"""Exception classes shared across subpackages (kept import-free)."""


class ResourceCapError(RuntimeError):
    """A requested grid, lattice or transport support exceeds its cap."""
