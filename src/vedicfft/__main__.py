"""``python -m vedicfft``: the ``vedicfft`` command."""

from .cli import entry

if __name__ == "__main__":
    entry()
