"""The serving path imports neither ``networkx`` nor ``numpy`` — nor
the experiment harness and the synthetic generators.

Only the paper-analysis helpers call them (``WikiGraph.to_networkx``,
``wiki/stats.py``, ``core/analysis.py``), and they import them where
they use them: a ``serve`` or ``shard-worker`` process carries ≈ 26 MB
less and starts ≈ 0.2 s sooner, and ``import repro.core`` works on a
machine without ``numpy`` (networkx's optional extra, not a dependency
the README promises).  Checked in a fresh interpreter — this one has
long since imported both.  ``ci.yml`` runs the same guard.

Step two (ISSUE 23): ``repro.cli`` imports ``repro.harness`` and the
``Benchmark`` generators inside the offline commands that call them, and
``repro.wiki`` resolves its four generator names on first use, so a
serving process compiles none of them.
"""

import subprocess
import sys

OFFLINE_ONLY = (
    "networkx", "numpy",
    "repro.harness", "repro.collection.synthetic", "repro.wiki.synthetic",
)
GUARD = (
    "import sys, repro.cli, repro.service, repro.updates; "
    f"sys.exit(', '.join(m for m in {OFFLINE_ONLY!r} if m in sys.modules) or 0)"
)

# A meta-path finder that makes numpy unimportable, as on a machine that
# never installed it.
NO_NUMPY = (
    "import sys\n"
    "class Refuse:\n"
    "    def find_spec(self, name, path=None, target=None):\n"
    "        if name.split('.')[0] == 'numpy':\n"
    "            raise ImportError('numpy is not installed here')\n"
    "sys.meta_path.insert(0, Refuse())\n"
)


def fresh_interpreter(code: str, *argv: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-c", code, *argv],
        capture_output=True, text=True, timeout=120, check=False,
    )


def test_serving_imports_load_neither_library():
    done = fresh_interpreter(GUARD)
    assert done.returncode == 0, (
        f"eagerly imported on the serving path: {done.stderr.strip()}"
    )


def test_the_analysis_helpers_still_load_them_on_use():
    done = fresh_interpreter(
        "import sys\n"
        "from repro.core import five_point_summary\n"
        "from repro.wiki import WikiGraphBuilder, triangle_participation_ratio\n"
        "assert 'numpy' not in sys.modules and 'networkx' not in sys.modules\n"
        "assert five_point_summary([1, 2, 3, 4]).median == 2.5\n"
        "assert 'numpy' in sys.modules\n"
        "builder = WikiGraphBuilder(strict=False)\n"
        "a, b, c = (builder.add_article(t) for t in 'abc')\n"
        "for u, v in ((a, b), (b, c), (c, a)):\n"
        "    builder.add_link(u, v)\n"
        "nx_graph = builder.build().to_networkx()\n"
        "assert 'networkx' in sys.modules\n"
        "assert triangle_participation_ratio(nx_graph) == 1.0\n"
    )
    assert done.returncode == 0, done.stderr


def test_the_generator_names_still_resolve_from_the_wiki_package():
    done = fresh_interpreter(
        "import sys, repro.wiki\n"
        "assert 'repro.wiki.synthetic' not in sys.modules\n"
        "from repro.wiki import SyntheticWikiConfig, generate_wiki\n"
        "assert 'repro.wiki.synthetic' in sys.modules\n"
        "assert generate_wiki(SyntheticWikiConfig(seed=3, num_domains=2)).graph\n"
        "namespace = {}\n"
        "exec('from repro.wiki import *', namespace)\n"
        "assert all(name in namespace for name in repro.wiki.__all__)\n"
        "try:\n"
        "    repro.wiki.no_such_name\n"
        "except AttributeError:\n"
        "    pass\n"
        "else:\n"
        "    raise SystemExit('an unknown name must raise AttributeError')\n"
    )
    assert done.returncode == 0, done.stderr


def test_serve_answers_without_numpy(tmp_path):
    """``repro serve`` builds, saves, loads and answers on a machine
    that has no ``numpy``; the analysis helpers fail there with the
    ordinary ImportError, at the call."""
    code = NO_NUMPY + (
        "from repro.cli import main\n"
        "from repro.core import five_point_summary\n"
        "try:\n"
        "    five_point_summary([1.0])\n"
        "except ImportError:\n"
        "    pass\n"
        "else:\n"
        "    raise SystemExit('numpy was importable: the probe is broken')\n"
        "sys.exit(main(['serve', '--snapshot', sys.argv[1], '--build',\n"
        "               '--seed', '7', '--query', 'falconry festival']))\n"
    )
    done = fresh_interpreter(code, str(tmp_path / "snap"))
    assert done.returncode == 0, done.stderr
    assert "snapshot layout: v3 sharded" in done.stdout
    assert "query: 'falconry festival'" in done.stdout
