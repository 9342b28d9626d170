"""ASCII decoding and the `key = value` line format shared by the
text-format readers."""

from ..errors import MalformedHeader


def _decode(text, error: type[Exception]) -> str:
    """Return str input as is; decode bytes-like input as ASCII, raising
    ``error`` when it is not."""
    if isinstance(text, (bytes, bytearray, memoryview)):
        try:
            return bytes(text).decode("ascii")
        except UnicodeDecodeError as exc:
            raise error(f"not ASCII text: {exc}") from exc
    return text


def parse_key_values(text: str) -> dict[str, str]:
    """Parse `key = value` lines into a dict of stripped strings, in file
    order. Blank lines and lines starting with '#' are skipped. A line
    without '=', an empty key or value, or a repeated key raises
    MalformedHeader naming the line."""
    values: dict[str, str] = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise MalformedHeader(f"line {line_no}: expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not key or not value:
            raise MalformedHeader(f"line {line_no}: empty key or value")
        if key in values:
            raise MalformedHeader(f"line {line_no}: duplicate key {key!r}")
        values[key] = value
    return values
