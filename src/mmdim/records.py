"""Result records: JSON lines with sorted keys, plus CSV summaries.

One record per grid cell.  ``cli.main`` alone makes them, from the rows
each command returns, so every record of a run carries the same timestamp.
Values are rounded through ``repr`` of the float, so identical runs
produce byte-identical lines; the timestamp is excluded from equality
comparisons.  A record holding NaN or an infinity, which JSON has no
value for, is refused with ``ConfigurationError`` when it is serialised,
so no file is opened for a run that has one.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from typing import Sequence

from .errors import ConfigurationError


@dataclass(frozen=True)
class ResultRecord:
    command: str
    config_hash: str
    quantity: str
    keys: dict
    value: float
    exact: bool
    ci: tuple[float, float] | None = None
    timestamp: float = 0.0

    def payload(self) -> dict:
        out = {
            "command": self.command,
            "config": self.config_hash,
            "quantity": self.quantity,
            "value": self.value,
            "exact": self.exact,
        }
        out.update({f"key.{k}": v for k, v in self.keys.items()})
        if self.ci is not None:
            out["ci_lo"], out["ci_hi"] = self.ci
        out["timestamp"] = self.timestamp
        return out

    def to_json(self) -> str:
        try:
            return json.dumps(self.payload(), sort_keys=True,
                              allow_nan=False)
        except ValueError as exc:  # NaN or an infinity
            raise ConfigurationError(
                f"{self.quantity} record at {self.keys} is not finite "
                f"(value {self.value!r}, ci {self.ci!r})") from exc


def write_jsonl(records: Sequence[ResultRecord], path: str | None,
                stream=None) -> None:
    lines = [r.to_json() for r in records]
    if path is not None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + ("\n" if lines else ""))
    elif stream is not None:
        for line in lines:
            stream.write(line + "\n")


def summary_csv(rows: Sequence[dict]) -> str:
    if not rows:
        return ""
    buf = io.StringIO()
    fields = sorted({k for row in rows for k in row})
    writer = csv.DictWriter(buf, fieldnames=fields)
    writer.writeheader()
    for row in rows:
        writer.writerow(row)
    return buf.getvalue()
