"""Binary checkpoint codec: magic, JSON header, little-endian float64 payload."""

from __future__ import annotations

import json
import os
import secrets
import struct

import numpy as np

from ..errors import CheckpointError, DomainError, check_int
from .network import InputNorm, NetworkSpec, ParameterSet

MAGIC = b"MXNC"
FORMAT_VERSION = 1
ACTIVATION = "tanh"  # the header names it; every network here is tanh


def save_params(params: ParameterSet, path, role=None, seed=None) -> None:
    """Write a checkpoint; the payload reproduces params.flat bit for bit.

    The bytes go to a temporary file beside ``path``, are fsynced, and then
    replace ``path`` in one step, so an interrupted save leaves either the
    old file or the new one, never a torn one.
    """
    header = {
        "format_version": FORMAT_VERSION,
        "spec": {
            "input_dim": params.spec.input_dim,
            "output_dim": params.spec.output_dim,
            "hidden": list(params.spec.hidden),
            "activation": ACTIVATION,
        },
        "norm": {
            "center": params.norm.center.tolist(),
            "halfspan": params.norm.halfspan.tolist(),
        },
        "param_count": int(params.flat.size),
        "role": role,
        "seed": seed,
    }
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    path = os.fspath(path)
    tmp = f"{path}.{secrets.token_hex(6)}.tmp"
    try:
        with open(tmp, "xb") as fh:
            fh.write(MAGIC)
            fh.write(struct.pack("<I", FORMAT_VERSION))
            fh.write(struct.pack("<Q", len(blob)))
            fh.write(blob)
            fh.write(params.flat.astype("<f8", copy=False).tobytes())
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def load_params(path, role=None):
    """Read a checkpoint; returns (ParameterSet, header dict). With a role
    given, a header naming another role raises CheckpointError."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint: {exc}") from exc
    if len(data) < 16 or data[:4] != MAGIC:
        raise CheckpointError("not a checkpoint file (bad magic)")
    version = struct.unpack("<I", data[4:8])[0]
    if version != FORMAT_VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version}")
    header_len = struct.unpack("<Q", data[8:16])[0]
    if len(data) < 16 + header_len:
        raise CheckpointError("truncated checkpoint header")
    try:
        header = json.loads(data[16:16 + header_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"corrupt checkpoint header: {exc}") from exc
    try:
        activation = header["spec"]["activation"]
        if activation != ACTIVATION:
            raise CheckpointError(f"unsupported activation {activation!r}; expected {ACTIVATION!r}")
        spec = NetworkSpec(
            input_dim=header["spec"]["input_dim"],
            output_dim=header["spec"]["output_dim"],
            hidden=tuple(header["spec"]["hidden"]),
        )
        norm = InputNorm(center=header["norm"]["center"], halfspan=header["norm"]["halfspan"])
        count = header["param_count"]
        check_int("param_count", count, 1)
    except (KeyError, TypeError) as exc:
        raise CheckpointError(f"checkpoint header missing field: {exc}") from exc
    except DomainError as exc:
        raise CheckpointError(f"checkpoint header holds an invalid spec: {exc}") from exc
    payload = data[16 + header_len:]
    if len(payload) != 8 * count:
        raise CheckpointError(f"payload holds {len(payload)} bytes, expected {8 * count}")
    flat = np.frombuffer(payload, dtype="<f8").astype(np.float64, copy=True)
    if count != spec.param_count:
        raise CheckpointError("parameter count does not match the architecture")
    if not np.all(np.isfinite(flat)):
        raise CheckpointError("checkpoint holds non-finite values")
    if role is not None and header.get("role") not in (None, role):
        raise CheckpointError(f"{path} holds a network of role {header.get('role')!r}, expected {role!r}")
    return ParameterSet(spec=spec, norm=norm, flat=flat), header
