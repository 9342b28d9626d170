"""ASCII decoding shared by the text-format readers."""


def _decode(text, error: type[Exception]) -> str:
    """Return str input as is; decode bytes-like input as ASCII, raising
    ``error`` when it is not."""
    if isinstance(text, (bytes, bytearray, memoryview)):
        try:
            return bytes(text).decode("ascii")
        except UnicodeDecodeError as exc:
            raise error(f"not ASCII text: {exc}") from exc
    return text
