"""JSON loading/saving for the documented file formats.

Floats are written as Python's repr writes them, the shortest decimal that
reads back as the same double, so every value round-trips bit-exactly
(-0.0 and integral floats such as 1.0 included).

Formats:
    series   {"terms": [{"b": <dec>, "theta": <dec>}, ...]}
    params   {"M": int, "y": [dec...], "c": [dec...]}
"""

from __future__ import annotations

import json
import os
import tempfile

from .errors import InputError, ValidationError


def dumps(obj) -> str:
    """Serialize dict/list/str/int/float/bool/None, indented two spaces per
    level; a non-finite float is a ValidationError."""
    try:
        return json.dumps(obj, indent=2, allow_nan=False) + "\n"
    except ValueError as exc:
        raise ValidationError(f"cannot serialize: {exc}") from exc


def write_text_atomic(path: str, text: str) -> None:
    """Write via a temp file + rename so readers never see partial files.

    mkstemp creates the temp file mode 0600; it gets the mode a plain open()
    would give, 0666 less the umask, before it takes the path's place.
    """
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        umask = os.umask(0)
        os.umask(umask)
        os.fchmod(fd, 0o666 & ~umask)
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def load_json(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise InputError(f"{path} is not valid JSON: {exc}") from exc


def _numbers(values, what: str) -> list:
    """values as floats; InputError unless each is a JSON number, not a bool."""
    if any(isinstance(v, bool) or not isinstance(v, (int, float)) for v in values):
        raise InputError(f"{what} has non-numeric entries")
    try:
        return [float(v) for v in values]
    except OverflowError as exc:
        raise InputError(f"{what} has an integer beyond double range") from exc


# -- series ------------------------------------------------------------

def series_to_obj(series) -> dict:
    pairs = zip(series.coeffs.tolist(), series.freqs.tolist())
    return {"terms": [{"b": b, "theta": theta} for b, theta in pairs]}


def series_from_obj(obj) -> "CosineSeries":
    from .series import CosineSeries

    if not isinstance(obj, dict) or "terms" not in obj:
        raise InputError('series JSON must be an object with a "terms" list')
    terms = obj["terms"]
    if not isinstance(terms, list):
        raise InputError('"terms" must be a list')
    pairs = []
    for i, term in enumerate(terms):
        if not isinstance(term, dict) or "b" not in term or "theta" not in term:
            raise InputError(f'term {i} must be an object with "b" and "theta"')
        pairs.append(_numbers((term["b"], term["theta"]), f"term {i}"))
    return CosineSeries(pairs)


def load_series(path: str):
    return series_from_obj(load_json(path))


def save_series(path: str, series) -> None:
    write_text_atomic(path, dumps(series_to_obj(series)))


# -- family params ------------------------------------------------------

def params_to_obj(params, extra: dict | None = None) -> dict:
    obj = {
        "M": int(params.m),
        "y": [float(v) for v in params.y],
        "c": [float(v) for v in params.c],
    }
    if extra:
        obj.update(extra)
    return obj


def params_from_obj(obj) -> "FamilyParams":
    from .family import FamilyParams

    if not isinstance(obj, dict):
        raise InputError("params JSON must be an object")
    for key in ("M", "y", "c"):
        if key not in obj:
            raise InputError(f'params JSON missing "{key}"')
    m = obj["M"]
    y = obj["y"]
    c = obj["c"]
    if type(m) is not int or not isinstance(y, list) or not isinstance(c, list):
        raise InputError('params JSON fields must be "M": int, "y": list, "c": list')
    if len(y) != m + 1 or len(c) != m:
        raise InputError(
            f"params JSON inconsistent: M={m} needs len(y)={m + 1}, len(c)={m}, "
            f"got {len(y)} and {len(c)}"
        )
    return FamilyParams(y=_numbers(y, "params JSON y"), c=_numbers(c, "params JSON c"))


def load_params(path: str):
    return params_from_obj(load_json(path))

