"""Which hostile fault-policy values a checkout accepts, on the CLI and the wire.

    python hostile_policies.py CHECKOUT

Prints one line per value: ``ACCEPTED`` (with what the run would get) or
``refused`` (with the error).  Wire values go through a JSON round trip, as a
client's request does, and then ``protocol.decode_config``; CLI values go
through ``repro.cli.common.fault_policy_from_args`` and the ``blob-gc``
command.  Nothing here is imported by the benchmark or the tests.
"""

from __future__ import annotations

import io
import json
import sys
from argparse import Namespace
from pathlib import Path

sys.path.insert(0, str(Path(sys.argv[1]) / "src"))

from repro.cli import main  # noqa: E402
from repro.cli.common import CliError, fault_policy_from_args  # noqa: E402
from repro.errors import ServiceError  # noqa: E402
from repro.service import protocol  # noqa: E402

OLD_CLIENT_POLICY = {
    "max_task_attempts": 2, "task_backoff_base_s": 0.05, "task_backoff_cap_s": 2.0,
    "task_timeout_s": None, "blob_get_attempts": 4, "blob_put_attempts": 3,
    "blob_backoff_base_s": 0.01, "blob_backoff_cap_s": 0.25,
    "blob_namespace_ttl_s": 86400.0, "jitter_seed": 0,
}

WIRE = (
    {"task_timeout_s": float("nan")},
    {"task_timeout_s": True},
    {"max_task_attempts": 2.5},
    {"max_task_attempts": True},
    OLD_CLIENT_POLICY,
)

for hostile in WIRE:
    label = "protocol-1 policy" if hostile is OLD_CLIENT_POLICY else json.dumps(hostile)
    try:
        config = protocol.decode_config(json.loads(json.dumps({"fault_policy": hostile})))
    except ServiceError as error:
        print(f"wire {label}: refused ({error})")
    else:
        policy = config.fault_policy
        print(f"wire {label}: ACCEPTED (attempts {policy.max_task_attempts!r}, "
              f"timeout {policy.task_timeout_s!r})")

for value in (float("nan"), float("inf")):
    try:
        policy = fault_policy_from_args(Namespace(retries=None, task_timeout=value))
    except CliError as error:
        print(f"--task-timeout {value}: refused ({error})")
    else:
        print(f"--task-timeout {value}: ACCEPTED (timeout {policy.task_timeout_s!r})")

for value in ("nan", "inf"):
    code = main(["blob-gc", "--blob-dir", str(Path(sys.argv[1])), "--ttl", value,
                 "--dry-run"], stream=io.StringIO())
    print(f"blob-gc --ttl {value}: exit {code}")
