#!/usr/bin/env python3
"""Zero-dependency documentation site builder (the ``make docs`` fallback).

The docs tree under ``docs/`` is authored for mkdocs (``mkdocs.yml`` at the
repo root), but mkdocs is not a runtime dependency and is absent in minimal
environments — so this script builds the same site with nothing beyond the
standard library:

* renders the hand-written markdown pages to HTML (headings, fenced code,
  lists, tables, blockquotes, inline code/bold/italic/links),
* generates an API reference page per ``repro`` subpackage straight from
  the live docstrings (import, introspect, render),
* verifies every internal link resolves to a page and every public module
  has a docstring, reporting anything suspicious as a warning.

Usage::

    python tools/docsite.py build [--strict] [--out DIR]

``--strict`` (what CI runs) turns any warning into a non-zero exit.  The
site lands in ``docs/_build/site`` by default and is plain static HTML —
open ``index.html`` in a browser.
"""

from __future__ import annotations

import argparse
import html
import importlib
import inspect
import pkgutil
import re
import sys
from pathlib import Path
from typing import Dict, List, Optional, Tuple

REPO = Path(__file__).resolve().parent.parent
DOCS = REPO / "docs"
DEFAULT_OUT = DOCS / "_build" / "site"

#: the navigation, mirrored by mkdocs.yml — (title, docs-relative source)
NAV: List[Tuple[str, str]] = [
    ("Home", "index.md"),
    ("Architecture", "architecture.md"),
    ("Reproducing the paper", "reproducing.md"),
    ("Sweep runtime & cache", "runtime.md"),
    ("Distributed sweeps", "distributed.md"),
    ("Solver daemon", "serving.md"),
    ("Scenario library", "scenarios.md"),
    ("LP backends", "lp-backends.md"),
    ("Performance", "performance.md"),
    ("API reference", "api/index.md"),
]

#: subpackages (and plain modules) that get a generated reference page
#: (``api/<name>.md``)
API_PACKAGES = [
    "repro.api",
    "repro.runtime",
    "repro.serve",
    "repro.net",
    "repro.scenarios",
    "repro.graphs",
    "repro.games",
    "repro.subsidies",
    "repro.hardness",
    "repro.bounds",
    "repro.lp",
    "repro.experiments",
    "repro.utils",
]

CSS = """
:root { --fg:#1a1d21; --muted:#5c6570; --line:#e2e5e9; --accent:#0b61a4;
        --code-bg:#f5f6f8; }
* { box-sizing: border-box; }
body { margin:0; color:var(--fg); font:16px/1.6 system-ui, sans-serif; }
.layout { display:flex; min-height:100vh; }
nav { width:240px; flex:none; border-right:1px solid var(--line);
      padding:1.5rem 1rem; }
nav h2 { font-size:.95rem; margin:.2rem 0 1rem; }
nav a { display:block; color:var(--muted); text-decoration:none;
        padding:.25rem .5rem; border-radius:6px; font-size:.92rem; }
nav a.current, nav a:hover { color:var(--accent); background:var(--code-bg); }
nav .section { margin-top:1rem; font-size:.75rem; text-transform:uppercase;
               letter-spacing:.06em; color:var(--muted); }
main { flex:1; max-width:52rem; padding:2rem 3rem 4rem; }
h1,h2,h3 { line-height:1.25; }
h1 { border-bottom:1px solid var(--line); padding-bottom:.4rem; }
a { color:var(--accent); }
code { background:var(--code-bg); border-radius:4px; padding:.1em .35em;
       font:.88em ui-monospace, monospace; }
pre { background:var(--code-bg); border:1px solid var(--line);
      border-radius:8px; padding: .9rem 1.1rem; overflow-x:auto; }
pre code { background:none; padding:0; }
table { border-collapse:collapse; margin:1rem 0; font-size:.92rem; }
th,td { border:1px solid var(--line); padding:.35rem .7rem; text-align:left; }
th { background:var(--code-bg); }
blockquote { margin:1rem 0; padding:.2rem 1rem; border-left:3px solid
             var(--accent); color:var(--muted); }
.apimod { margin: 1.6rem 0; }
.apimod h3 { margin-bottom:.3rem; }
.sig { color:var(--muted); font-size:.88rem; }
""".strip()

PAGE = """<!DOCTYPE html>
<html lang="en"><head><meta charset="utf-8">
<meta name="viewport" content="width=device-width, initial-scale=1">
<title>{title} — repro</title><style>{css}</style></head>
<body><div class="layout">
<nav><h2>repro docs</h2>{nav}</nav>
<main>{body}</main>
</div></body></html>
"""


class Warnings:
    def __init__(self) -> None:
        self.items: List[str] = []

    def add(self, msg: str) -> None:
        self.items.append(msg)
        print(f"WARNING: {msg}", file=sys.stderr)


# ---------------------------------------------------------------------------
# Markdown subset -> HTML
# ---------------------------------------------------------------------------

_INLINE_CODE = re.compile(r"`([^`]+)`")
_BOLD = re.compile(r"\*\*([^*]+)\*\*")
_ITALIC = re.compile(r"(?<![*\w])\*([^*]+)\*(?![*\w])")
_LINK = re.compile(r"\[([^\]]+)\]\(([^)\s]+)\)")


def slugify(text: str) -> str:
    return re.sub(r"[^a-z0-9]+", "-", text.lower()).strip("-")


def _inline(text: str, links: Optional[List[str]] = None) -> str:
    """Render inline markup; escaping first, then span substitutions."""
    out = html.escape(text, quote=False)

    def link(m: "re.Match[str]") -> str:
        label, target = m.group(1), m.group(2)
        if links is not None:
            links.append(target)
        return f'<a href="{html.escape(_to_html_href(target))}">{label}</a>'

    out = _INLINE_CODE.sub(lambda m: f"<code>{m.group(1)}</code>", out)
    out = _LINK.sub(link, out)
    out = _BOLD.sub(r"<strong>\1</strong>", out)
    out = _ITALIC.sub(r"<em>\1</em>", out)
    return out


def _to_html_href(target: str) -> str:
    """Internal ``x.md`` links become ``x.html`` in the built site."""
    if target.startswith(("http://", "https://", "mailto:", "#")):
        return target
    path, _, anchor = target.partition("#")
    if path.endswith(".md"):
        path = path[:-3] + ".html"
    return path + (f"#{anchor}" if anchor else "")


def render_markdown(text: str, links: Optional[List[str]] = None) -> Tuple[str, List[str]]:
    """Render the supported markdown subset; returns (html, heading slugs)."""
    lines = text.split("\n")
    out: List[str] = []
    anchors: List[str] = []
    i = 0
    in_list: Optional[str] = None  # "ul" | "ol"

    def close_list() -> None:
        nonlocal in_list
        if in_list:
            out.append(f"</{in_list}>")
            in_list = None

    while i < len(lines):
        line = lines[i]
        stripped = line.strip()

        if stripped.startswith("```"):
            close_list()
            fence: List[str] = []
            i += 1
            while i < len(lines) and not lines[i].strip().startswith("```"):
                fence.append(lines[i])
                i += 1
            i += 1  # closing fence
            body = html.escape("\n".join(fence), quote=False)
            out.append(f"<pre><code>{body}</code></pre>")
            continue

        heading = re.match(r"^(#{1,6})\s+(.*)$", stripped)
        if heading:
            close_list()
            level = len(heading.group(1))
            title = heading.group(2).strip()
            slug = slugify(title)
            anchors.append(slug)
            out.append(f'<h{level} id="{slug}">{_inline(title, links)}</h{level}>')
            i += 1
            continue

        if stripped in ("---", "***", "___"):
            close_list()
            out.append("<hr>")
            i += 1
            continue

        if stripped.startswith("|") and stripped.endswith("|"):
            close_list()
            rows: List[List[str]] = []
            while i < len(lines) and lines[i].strip().startswith("|"):
                cells = [c.strip() for c in lines[i].strip().strip("|").split("|")]
                if not all(re.fullmatch(r":?-{2,}:?", c or "-") for c in cells):
                    rows.append(cells)
                i += 1
            if rows:
                head = "".join(f"<th>{_inline(c, links)}</th>" for c in rows[0])
                body_rows = [
                    "<tr>" + "".join(f"<td>{_inline(c, links)}</td>" for c in r) + "</tr>"
                    for r in rows[1:]
                ]
                out.append(
                    f"<table><thead><tr>{head}</tr></thead>"
                    f"<tbody>{''.join(body_rows)}</tbody></table>"
                )
            continue

        bullet = re.match(r"^[-*]\s+(.*)$", stripped)
        ordered = re.match(r"^\d+\.\s+(.*)$", stripped)
        if bullet or ordered:
            kind = "ul" if bullet else "ol"
            if in_list != kind:
                close_list()
                out.append(f"<{kind}>")
                in_list = kind
            item = (bullet or ordered).group(1)  # type: ignore[union-attr]
            # continuation lines (indented) attach to the same item
            cont: List[str] = []
            while (
                i + 1 < len(lines)
                and lines[i + 1].startswith("  ")
                and lines[i + 1].strip()
                and not re.match(r"^[-*]\s|^\d+\.\s", lines[i + 1].strip())
            ):
                cont.append(lines[i + 1].strip())
                i += 1
            full = " ".join([item, *cont])
            out.append(f"<li>{_inline(full, links)}</li>")
            i += 1
            continue

        if stripped.startswith(">"):
            close_list()
            quote: List[str] = []
            while i < len(lines) and lines[i].strip().startswith(">"):
                quote.append(lines[i].strip().lstrip(">").strip())
                i += 1
            out.append(f"<blockquote><p>{_inline(' '.join(quote), links)}</p></blockquote>")
            continue

        if not stripped:
            close_list()
            i += 1
            continue

        # paragraph: greedily absorb plain continuation lines
        para = [stripped]
        while i + 1 < len(lines):
            nxt = lines[i + 1].strip()
            if (
                not nxt
                or nxt.startswith(("#", "```", "|", ">", "- ", "* "))
                or re.match(r"^\d+\.\s", nxt)
                or nxt in ("---", "***", "___")
            ):
                break
            para.append(nxt)
            i += 1
        out.append(f"<p>{_inline(' '.join(para), links)}</p>")
        i += 1

    close_list()
    return "\n".join(out), anchors


# ---------------------------------------------------------------------------
# API reference generation
# ---------------------------------------------------------------------------


_RST_ROLE = re.compile(r":[a-z]+:`~?([^`]+)`")
_RST_DOUBLE_BACKTICK = re.compile(r"``(.+?)``")


def _first_paragraph(doc: Optional[str]) -> str:
    """First docstring paragraph, with RST markup downgraded to markdown."""
    if not doc:
        return ""
    text = inspect.cleandoc(doc).split("\n\n")[0].replace("\n", " ")
    text = _RST_ROLE.sub(lambda m: f"`{m.group(1).rsplit('.', 1)[-1]}`", text)
    return _RST_DOUBLE_BACKTICK.sub(r"`\1`", text)


def _signature(obj: object) -> str:
    try:
        return str(inspect.signature(obj))  # type: ignore[arg-type]
    except (TypeError, ValueError):
        return "(…)"


def generate_api_page(package_name: str, warn: Warnings) -> str:
    """One markdown page documenting every module of ``package_name``
    (just the module itself when it is a plain module)."""
    package = importlib.import_module(package_name)
    md: List[str] = [f"# `{package_name}`", ""]
    intro = _first_paragraph(package.__doc__)
    if intro:
        md += [intro, ""]
    else:
        warn.add(f"package {package_name} has no docstring")

    module_names = [package_name]
    for info in pkgutil.iter_modules(getattr(package, "__path__", []), f"{package_name}."):
        if not info.ispkg and not info.name.rsplit(".", 1)[-1].startswith("_"):
            module_names.append(info.name)
        elif info.ispkg:  # nested packages (repro.hardness.solvers)
            sub = importlib.import_module(info.name)
            module_names.append(info.name)
            for leaf in pkgutil.iter_modules(sub.__path__, prefix=f"{info.name}."):
                if not leaf.name.rsplit(".", 1)[-1].startswith("_"):
                    module_names.append(leaf.name)

    for name in module_names[1:] if len(module_names) > 1 else module_names:
        module = importlib.import_module(name)
        if module is not package:  # else the page intro already is its docstring
            md += [f"## `{name}`", ""]
            doc = _first_paragraph(module.__doc__)
            if doc:
                md += [doc, ""]
            else:
                warn.add(f"module {name} has no docstring")
        members = []
        for attr, obj in sorted(vars(module).items()):
            if attr.startswith("_") or getattr(obj, "__module__", None) != name:
                continue
            if inspect.isclass(obj) or inspect.isfunction(obj):
                members.append((attr, obj))
        for attr, obj in members:
            kind = "class" if inspect.isclass(obj) else "def"
            summary = _first_paragraph(obj.__doc__)
            md.append(f"- **`{kind} {attr}{_signature(obj)}`** — {summary}")
        if members:
            md.append("")
    return "\n".join(md)


# ---------------------------------------------------------------------------
# Site assembly
# ---------------------------------------------------------------------------


def _nav_html(pages: List[Tuple[str, str]], current: str) -> str:
    items = []
    for title, src in pages:
        href = _to_html_href(_relpath(src, current))
        cls = ' class="current"' if src == current else ""
        items.append(f'<a{cls} href="{href}">{html.escape(title)}</a>')
    api_items = []
    for pkg in API_PACKAGES:
        src = f"api/{pkg}.md"
        href = _to_html_href(_relpath(src, current))
        cls = ' class="current"' if src == current else ""
        api_items.append(f'<a{cls} href="{href}"><code>{pkg}</code></a>')
    return (
        "".join(items)
        + '<div class="section">Reference</div>'
        + "".join(api_items)
    )


def _relpath(target: str, current: str) -> str:
    depth = current.count("/")
    return "../" * depth + target


def build(out_dir: Path, strict: bool) -> int:
    warn = Warnings()
    sys.path.insert(0, str(REPO / "src"))

    sources: Dict[str, str] = {}
    for title, src in NAV:
        path = DOCS / src
        if not path.is_file():
            warn.add(f"nav entry {src!r} does not exist under docs/")
            continue
        sources[src] = path.read_text()
    for pkg in API_PACKAGES:
        sources[f"api/{pkg}.md"] = generate_api_page(pkg, warn)

    rendered: Dict[str, Tuple[str, List[str], List[str]]] = {}
    page_anchors: Dict[str, List[str]] = {}
    for src, text in sources.items():
        links: List[str] = []
        body, anchors = render_markdown(text, links)
        rendered[src] = (body, anchors, links)
        page_anchors[src] = anchors

    # link check: every internal target must be a known page (+ anchor)
    for src, (_, _, links) in rendered.items():
        for target in links:
            if target.startswith(("http://", "https://", "mailto:")):
                continue
            path, _, anchor = target.partition("#")
            if not path:  # same-page anchor
                if anchor and anchor not in page_anchors[src]:
                    warn.add(f"{src}: broken anchor #{anchor}")
                continue
            resolved = _resolve(src, path)
            if resolved not in sources:
                warn.add(f"{src}: broken internal link {target!r}")
            elif anchor and anchor not in page_anchors.get(resolved, []):
                warn.add(f"{src}: broken anchor {target!r}")

    out_dir.mkdir(parents=True, exist_ok=True)
    titles = dict((src, title) for title, src in NAV)
    for src, (body, anchors, _) in rendered.items():
        title = titles.get(src) or src.rsplit("/", 1)[-1].removesuffix(".md")
        page = PAGE.format(
            title=html.escape(title),
            css=CSS,
            nav=_nav_html(NAV, src),
            body=body,
        )
        dest = out_dir / (src[:-3] + ".html")
        dest.parent.mkdir(parents=True, exist_ok=True)
        dest.write_text(page)

    n = len(rendered)
    print(f"built {n} pages -> {out_dir}")
    if warn.items:
        print(f"{len(warn.items)} warning(s)", file=sys.stderr)
        return 1 if strict else 0
    return 0


def _resolve(current: str, relative: str) -> str:
    base = current.rsplit("/", 1)[0] if "/" in current else ""
    parts = (f"{base}/{relative}" if base else relative).split("/")
    stack: List[str] = []
    for part in parts:
        if part in ("", "."):
            continue
        if part == "..":
            if stack:
                stack.pop()
        else:
            stack.append(part)
    return "/".join(stack)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    build_p = sub.add_parser("build", help="build the static site")
    build_p.add_argument("--out", default=str(DEFAULT_OUT), help="output directory")
    build_p.add_argument(
        "--strict", action="store_true", help="exit non-zero on any warning"
    )
    args = parser.parse_args(argv)
    return build(Path(args.out), strict=args.strict)


if __name__ == "__main__":
    raise SystemExit(main())
