"""Dashboards: the gateway's ``/dashboard`` page and spool status renderers.

Two surfaces, both dependency-free:

* :data:`DASHBOARD_HTML` -- a single self-contained HTML page served at
  ``GET /dashboard``.  It polls ``/stats`` and ``/jobs`` on a timer and,
  when a job is selected, attaches to the ndjson progress stream
  (``/jobs/{id}/progress``) to render the live telemetry phase breakdown.
  No framework, no CDN, no build step: the page must work on an
  air-gapped cluster head node exactly like everything else in the repo.
* :func:`render_spool_status` / :func:`render_spool_status_html` -- the
  ``unsnap spool status [--html]`` views over a :meth:`~repro.campaign.
  distributed.spool.SpoolDir.status` dict (claims, heartbeats, done/error
  counts and the quarantine with its ``.reason`` excerpts).
"""

from __future__ import annotations

import html

__all__ = ["DASHBOARD_HTML", "render_spool_status", "render_spool_status_html"]


def _fmt_age(seconds: float) -> str:
    if seconds < 120:
        return f"{seconds:.1f}s"
    if seconds < 7200:
        return f"{seconds / 60:.1f}m"
    return f"{seconds / 3600:.1f}h"


def render_spool_status(status: dict) -> str:
    """Aligned text view of a spool ``status()`` dict."""
    lines = [
        f"spool {status.get('root', '?')}",
        f"  pending      {status.get('pending', 0)}",
        f"  claimed      {len(status.get('claims', []))}",
        f"  done         {status.get('done', 0)}",
        f"  errors       {status.get('errors', 0)}",
        f"  quarantined  {len(status.get('quarantined', []))}",
        "  doorbells    "
        + " ".join(f"{role}={n}" for role, n in sorted(status.get("doorbells", {}).items())),
        f"  stop         {'requested' if status.get('stop_requested') else '-'}",
    ]
    claims = status.get("claims", [])
    if claims:
        lines.append("claims:")
        for claim in claims:
            lines.append(
                f"  point {claim.get('index', '?'):>6} "
                f"attempt {claim.get('attempts', '?')} "
                f"owner {claim.get('worker_id', '?')} "
                f"age {_fmt_age(float(claim.get('age_seconds', 0.0)))}"
            )
    workers = status.get("workers", [])
    if workers:
        lines.append("workers:")
        for worker in workers:
            liveness = "live" if worker.get("live") else "stale"
            lines.append(
                f"  {worker.get('worker_id', '?')} "
                f"heartbeat {_fmt_age(float(worker.get('age_seconds', 0.0)))} "
                f"({liveness})"
            )
    quarantined = status.get("quarantined", [])
    if quarantined:
        lines.append("quarantine:")
        for entry in quarantined:
            reason = str(entry.get("reason", "")).strip() or "(no reason recorded)"
            if len(reason) > 100:
                reason = reason[:97] + "..."
            lines.append(f"  {entry.get('name', '?')}: {reason}")
    return "\n".join(lines)


def render_spool_status_html(status: dict) -> str:
    """The same status dict as one static HTML page (``--html``)."""
    e = html.escape

    def table(headers: list[str], rows: list[list[str]]) -> str:
        head = "".join(f"<th>{e(h)}</th>" for h in headers)
        body = "".join(
            "<tr>" + "".join(f"<td>{e(cell)}</td>" for cell in row) + "</tr>"
            for row in rows
        )
        return f"<table><thead><tr>{head}</tr></thead><tbody>{body}</tbody></table>"

    tiles = "".join(
        f'<div class="tile"><div class="num">{e(str(value))}</div>'
        f"<div>{e(label)}</div></div>"
        for label, value in (
            ("pending", status.get("pending", 0)),
            ("claimed", len(status.get("claims", []))),
            ("done", status.get("done", 0)),
            ("errors", status.get("errors", 0)),
            ("quarantined", len(status.get("quarantined", []))),
        )
    )
    sections = [f"<h1>spool {e(str(status.get('root', '?')))}</h1>", tiles]
    if status.get("stop_requested"):
        sections.append('<p class="warn">STOP requested: workers drain and exit.</p>')
    if status.get("claims"):
        sections.append("<h2>Claims</h2>")
        sections.append(
            table(
                ["point", "attempt", "owner", "age"],
                [
                    [
                        str(c.get("index", "?")),
                        str(c.get("attempts", "?")),
                        str(c.get("worker_id", "?")),
                        _fmt_age(float(c.get("age_seconds", 0.0))),
                    ]
                    for c in status["claims"]
                ],
            )
        )
    if status.get("workers"):
        sections.append("<h2>Workers</h2>")
        sections.append(
            table(
                ["worker", "heartbeat age", "liveness"],
                [
                    [
                        str(w.get("worker_id", "?")),
                        _fmt_age(float(w.get("age_seconds", 0.0))),
                        "live" if w.get("live") else "stale",
                    ]
                    for w in status["workers"]
                ],
            )
        )
    if status.get("quarantined"):
        sections.append("<h2>Quarantine</h2>")
        sections.append(
            table(
                ["job", "reason"],
                [
                    [str(q.get("name", "?")), str(q.get("reason", "")).strip()]
                    for q in status["quarantined"]
                ],
            )
        )
    body = "\n".join(sections)
    return f"""<!doctype html>
<html lang="en"><head><meta charset="utf-8">
<title>unsnap spool status</title>
<style>{_CSS}</style>
</head><body><main>{body}</main></body></html>
"""


_CSS = """
:root { color-scheme: light dark; }
body { font: 14px/1.45 system-ui, sans-serif; margin: 1.5rem; }
main { max-width: 60rem; margin: 0 auto; }
h1 { font-size: 1.2rem; } h2 { font-size: 1rem; margin-top: 1.2rem; }
table { border-collapse: collapse; width: 100%; margin: .4rem 0; }
th, td { text-align: left; padding: .25rem .6rem; border-bottom: 1px solid #8884; }
th { font-weight: 600; }
.tile { display: inline-block; min-width: 6.5rem; margin: .2rem; padding: .5rem .8rem;
        border: 1px solid #8884; border-radius: .4rem; text-align: center; }
.tile .num { font-size: 1.4rem; font-weight: 700; font-variant-numeric: tabular-nums; }
.warn { color: #b45309; font-weight: 600; }
.bar { background: #60a5fa; height: .7rem; border-radius: .2rem; min-width: 2px; }
.muted { opacity: .65; }
pre { overflow-x: auto; }
"""

#: The live service dashboard served at ``GET /dashboard``: polls
#: ``/stats`` + ``/jobs`` every 2 seconds, streams a selected job's ndjson
#: progress endpoint and renders the telemetry phase breakdown as bars.
DASHBOARD_HTML = f"""<!doctype html>
<html lang="en"><head><meta charset="utf-8">
<title>unsnap service dashboard</title>
<meta name="viewport" content="width=device-width, initial-scale=1">
<style>{_CSS}</style>
</head><body><main>
<h1>unsnap service <span id="backend" class="muted"></span></h1>
<div id="tiles"></div>
<h2>Jobs</h2>
<table><thead><tr><th>id</th><th>state</th><th>key</th><th></th></tr></thead>
<tbody id="jobs"></tbody></table>
<h2>Progress <span id="watching" class="muted"></span></h2>
<div id="phases" class="muted">select a job to stream its progress</div>
<script>
"use strict";
const fmt = (x) => typeof x === "number" ? (Number.isInteger(x) ? x : x.toFixed(3)) : x;
function tile(label, value) {{
  return `<div class="tile"><div class="num">${{fmt(value)}}</div><div>${{label}}</div></div>`;
}}
async function refresh() {{
  try {{
    const stats = await (await fetch("/stats")).json();
    document.getElementById("backend").textContent =
      `backend=${{stats.backend}} workers=${{stats.workers}}`;
    const jobs = stats.jobs || {{}};
    let tiles =
      tile("queued", jobs.queued || 0) + tile("running", jobs.running || 0) +
      tile("done", jobs.done || 0) + tile("failed", jobs.failed || 0) +
      tile("queue depth", stats.queue_depth || 0) +
      tile("cache hit %", Math.round(100 * (stats.cache_hit_ratio || 0)));
    if (stats.store) tiles += tile("store records", stats.store.records);
    document.getElementById("tiles").innerHTML = tiles;
    const list = (await (await fetch("/jobs")).json()).jobs || [];
    document.getElementById("jobs").innerHTML = list.map((j) =>
      `<tr><td>${{j.id}}</td><td>${{j.state}}</td>` +
      `<td class="muted">${{(j.key || "").slice(0, 16)}}</td>` +
      `<td><a href="#" onclick="watch(${{j.id}}); return false;">progress</a></td></tr>`
    ).join("");
  }} catch (err) {{
    document.getElementById("backend").textContent = `(unreachable: ${{err}})`;
  }}
}}
function renderPhases(snapshot) {{
  const phases = (snapshot.telemetry || {{}}).phases || {{}};
  const names = Object.keys(phases);
  const header = `<p>job ${{snapshot.id}}: <strong>${{snapshot.state}}</strong>` +
    (snapshot.error ? ` — ${{snapshot.error}}` : "") + `</p>`;
  if (!names.length) {{
    document.getElementById("phases").innerHTML = header +
      `<p class="muted">no telemetry phases (yet)</p>`;
    return;
  }}
  const max = Math.max(...names.map((n) => phases[n].seconds));
  document.getElementById("phases").innerHTML = header +
    `<table><tbody>` + names.sort().map((n) =>
      `<tr><td>${{n}}</td><td>${{phases[n].seconds.toFixed(4)}}s</td>` +
      `<td style="width:50%"><div class="bar" style="width:${{
        max > 0 ? Math.round(100 * phases[n].seconds / max) : 0}}%"></div></td></tr>`
    ).join("") + `</tbody></table>`;
}}
async function watch(id) {{
  document.getElementById("watching").textContent = `(job ${{id}})`;
  const response = await fetch(`/jobs/${{id}}/progress?interval=0.5`);
  const reader = response.body.getReader();
  const decoder = new TextDecoder();
  let buffer = "";
  for (;;) {{
    const {{done, value}} = await reader.read();
    if (done) break;
    buffer += decoder.decode(value, {{stream: true}});
    const lines = buffer.split("\\n");
    buffer = lines.pop();
    for (const line of lines) if (line.trim()) renderPhases(JSON.parse(line));
  }}
}}
refresh();
setInterval(refresh, 2000);
</script>
</main></body></html>
"""
