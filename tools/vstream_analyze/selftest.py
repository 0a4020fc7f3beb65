"""Analyzer self-test: synthetic bad/good projects + lexer
regressions.

Every rule id must fire at least once on the bad inputs and never on
the good inputs.  The lexer regressions pin the three historical
stripper bugs (raw strings, line-continuation backslashes inside //
comments, digit separators) so they cannot come back.
"""

import os
import sys
import tempfile

from . import lexer
from . import rules
from .project import Project

# -- stub project headers (clean; give the include graph real edges)

STUB_STATS_REGISTRY = '''\
#ifndef VSTREAM_SIM_STATS_REGISTRY_HH
#define VSTREAM_SIM_STATS_REGISTRY_HH
class StatsRegistry;
#endif
'''

STUB_PARALLEL = '''\
#ifndef VSTREAM_SIM_PARALLEL_HH
#define VSTREAM_SIM_PARALLEL_HH
void parallelForDecl();
#endif
'''

# -- bad inputs: every rule must fire somewhere in these -------------

BAD_HEADER = '''\
#ifndef WRONG_GUARD_HH
#define WRONG_GUARD_HH
#include <cassert>
#include <random>
#include "sim/stats_registry.hh"
class Bad : public SimObject
{
  public:
    void regStats(StatsRegistry &r) override;
  private:
    int *p_ = new int(3);
};
inline void f(int *q) { assert(q != NULL); delete q; std::abort(); }
inline int g() { return rand(); }
inline void h(std::ostream &os) { stats::printStat(os, "x", 1.0); }
inline void i(char *buf, FILE *fp) { fread(buf, 1, 16, fp); }
inline void iPosix(char *buf, FILE *fp, int fd)
{
    std::fread(buf, 1, 16, fp);
    ::read(fd, buf, 16);
    read(fd, buf, sizeof(int[2]));
}
inline void j() { while (true) { retryBurst(); } }
// vstream:hot
inline int *k()
{
    std::string name("scratch");
    return new int(static_cast<int>(name.size()));
}
inline double wallSeconds()
{
    auto t0 = std::chrono::steady_clock::now();
    return static_cast<double>(time(nullptr));
}
inline const char *env() { return std::getenv("VSTREAM_X"); }
inline std::size_t ptrHash(void *p)
{
    return std::hash<void *>{}(p);
}
inline void dumpCounts(std::ostream &os)
{
    std::unordered_map<std::uint32_t, int> counts;
    for (const auto &kv : counts) {
        os << kv.first;
    }
}
#endif
'''

BAD_HOT = '''\
#include "sim/stats_registry.hh"
namespace bad
{
void helperGrow(std::vector<int> &v)
{
    v.push_back(1);
}
// vstream:hot
void hotKernel(std::vector<int> &v)
{
    helperGrow(v);
}
// vstream:hot
void hotRawBuffer(std::size_t n)
{
    // malloc bypasses recycled storage, and the owning local
    // vector allocates on every call: surface-pool-discipline.
    char *raw = static_cast<char *>(malloc(n));
    std::vector<char> scratch;
    scratch.push_back(raw[0]);
    free(raw);
}
} // namespace bad
'''

BAD_LOCK = '''\
#include "sim/parallel.hh"
class BadShard
{
  public:
    void run(unsigned jobs);
  private:
    // vstream:shard_local
    int scratch_ = 0;
    // vstream:guarded_by(mutex_)
    int shared_ = 0;
};
void
BadShard::run(unsigned jobs)
{
    parallelFor(jobs, 8, [&](std::size_t i) {
        scratch_ += static_cast<int>(i);
        shared_ += 1;
    });
}
'''

BAD_QUEUE = '''\
#include "sim/stats_registry.hh"
class BadAdmission
{
  public:
    void submit(int job);
  private:
    std::deque<int> waiting_;
    std::queue<int> retry_backlog_;
};
void
BadAdmission::submit(int job)
{
    waiting_.push_back(job);
}
'''

BAD_SHARED = '''\
#include "sim/stats_registry.hh"
class BadTier
{
  public:
    void publish(int key);
  private:
    // Cross-session state with no guarded_by/shard_local story:
    // shared-state-guarded must fire.
    std::map<int, int> shared_blocks_;
    int global_epoch_ = 0;
};
void
BadTier::publish(int key)
{
    shared_blocks_[key] = global_epoch_;
}
'''

BAD_UNREF = '''\
#ifndef VSTREAM_CORE_BAD_UNREF_HH
#define VSTREAM_CORE_BAD_UNREF_HH
class Dead
{
  public:
    // Named by its declaration and definition only:
    // unreferenced-function must fire.
    int neverCalled() const;
};
#endif
'''

BAD_UNREF_IMPL = '''\
#include "core/bad_unref.hh"
int
Dead::neverCalled() const
{
    return 1;
}
'''

BAD_SIM_NEW = '''\
// src/sim/ has no exemption: no-naked-new must fire here too.
int *
leakOne()
{
    return new int(7);
}
'''

# -- good inputs: zero findings expected -----------------------------

GOOD_HEADER = '''\
#ifndef VSTREAM_CORE_GOOD_HH
#define VSTREAM_CORE_GOOD_HH
// assert() in a comment, "abort()" and NULL in strings are fine:
inline const char *s() { return "do not abort() on NULL"; }
// Raw strings must be stripped to their closing delimiter, not the
// first quote; everything here is literal content:
inline const char *r()
{
    return R"(rand() NULL abort() "quoted" /* not a comment)";
}
// A line-continuation backslash extends this comment: rand() \\
   srand(42); abort(); NULL
inline int sep() { return 1'000'000 + 0xFF'FF; }
class Good : public SimObject
{
  public:
    void regStats(StatsRegistry &r) override;
};
inline bool i(char *buf, std::size_t n, FILE *fp)
{
    // Checked and member-call IO never fires no-unchecked-io:
    if (fread(buf, 1, n, fp) != n) { return false; }
    std::stringstream ss;
    ss.read(buf, 4);
    // Nor does a local lambda that happens to be named read:
    std::size_t got = 0;
    const auto read = [&](std::size_t lines) { got += lines; };
    read(n);
    read(std::min<std::size_t>(n, 2));
    return bool(ss) && got > 0;
}
inline void j(unsigned retry_limit)
{
    // A bounded retry loop never fires no-unbounded-retry:
    unsigned attempts = 0;
    while (true) {
        if (++attempts > retry_limit) { break; }
        retryBurst();
    }
}
// vstream:hot
inline std::uint32_t k(const std::string &key, std::uint32_t seed)
{
    // Reads a std::string by reference and allocates nothing:
    // never fires no-hotpath-alloc.
    std::uint32_t h = seed;
    for (char c : key) {
        h = h * 31u + static_cast<std::uint8_t>(c);
    }
    return h;
}
#endif
'''

GOOD_HOT = '''\
#include "sim/stats_registry.hh"
namespace good
{
int helperPure(int x)
{
    return x * 2;
}
// A deliberate, documented growth path right below a hot caller:
// vstream:allow(no-hotpath-alloc) amortized growth; callers reserve
void helperGrowAllowed(std::vector<int> &v)
{
    v.push_back(1);
}
// vstream:hot
int hotKernel(std::vector<int> &v, int x)
{
    helperGrowAllowed(v);
    return helperPure(x);
}
// vstream:hot
int hotScratchReuse(std::vector<int> &scratch)
{
    // Reference bindings to a caller-owned (pooled) scratch never
    // fire surface-pool-discipline; only owning locals do.
    const std::vector<int> &view = scratch;
    scratch.clear();
    return helperPure(static_cast<int>(view.size()));
}
} // namespace good
'''

GOOD_LOCK = '''\
#include "sim/parallel.hh"
class GoodShard
{
  public:
    void run(unsigned jobs);
  private:
    // vstream:shard_local
    int merged_ = 0;
    // vstream:guarded_by(mutex_)
    int shared_ok_ = 0;
};
void
GoodShard::run(unsigned jobs)
{
    parallelFor(jobs, 8, [&](std::size_t i) {
        const std::lock_guard<std::mutex> lock(mutex_);
        shared_ok_ += static_cast<int>(i);
    });
    merged_ += 1; // outside the workers: fine
}
'''

GOOD_ORDERED = '''\
#include "sim/stats_registry.hh"
#include "core/flat_table.hh"
inline void dumpSorted(std::ostream &os)
{
    // FlatMap + a sorted snapshot is the sanctioned pattern.
    vstream::FlatMap<std::uint32_t, int> counts;
    std::vector<std::uint32_t> keys;
    counts.forEach([&](std::uint32_t k, int) { keys.push_back(k); });
    std::sort(keys.begin(), keys.end());
    for (std::uint32_t k : keys) {
        os << k;
    }
}
'''

GOOD_QUEUE = '''\
#include "sim/stats_registry.hh"
class GoodAdmission
{
  public:
    void submit(int job);
    void expireOverdue(long now);
  private:
    // Bounded: entries past deadline_ expire in expireOverdue().
    std::deque<int> waiting_;
    long deadline_ = 0;
};
void
GoodAdmission::submit(int job)
{
    waiting_.push_back(job);
}
'''

GOOD_SHARED = '''\
#include "sim/stats_registry.hh"
class GoodTier
{
  public:
    void publish(int key);
  private:
    // Annotated cross-session state never fires
    // shared-state-guarded:
    // vstream:guarded_by(mu_)
    std::map<int, int> shared_blocks_;
    // vstream:shard_local
    int global_epoch_ = 0;
};
void
GoodTier::publish(int key)
{
    shared_blocks_[key] = global_epoch_;
}
'''

GOOD_UNREF = '''\
#ifndef VSTREAM_CORE_GOOD_UNREF_HH
#define VSTREAM_CORE_GOOD_UNREF_HH
class Base
{
  public:
    Base();
    virtual ~Base();
    virtual void hook();
    bool operator==(const Base &o) const;
};
class Derived : public Base
{
  public:
    // An override is reached through Base: never flagged.
    void hook() override;
};
// Named by good_refs.cc below: never flagged.
int calledFunction(int x);
#endif
'''

# Callers for every function the good headers declare, so that
# unreferenced-function stays silent on them.
GOOD_REFS = '''\
#include "core/good.hh"
#include "core/good_unref.hh"
#include "sim/parallel.hh"
int
useEverything(Base &b)
{
    b.hook();
    parallelForDecl();
    j(3);
    return calledFunction(sep()) + static_cast<int>(k("", 0)) +
           (s() != r()) + i(nullptr, 0, nullptr);
}
'''

STUB_FLAT_TABLE = '''\
#ifndef VSTREAM_CORE_FLAT_TABLE_HH
#define VSTREAM_CORE_FLAT_TABLE_HH
namespace vstream { }
#endif
'''

BAD_FILES = {
    'src/core/bad.hh': BAD_HEADER,
    'src/core/bad_hot.cc': BAD_HOT,
    'src/core/bad_lock.cc': BAD_LOCK,
    'src/core/bad_queue.cc': BAD_QUEUE,
    'src/core/bad_shared.cc': BAD_SHARED,
    'src/core/bad_unref.hh': BAD_UNREF,
    'src/core/bad_unref.cc': BAD_UNREF_IMPL,
    'src/sim/bad_new.cc': BAD_SIM_NEW,
}

GOOD_FILES = {
    'src/core/good.hh': GOOD_HEADER,
    'src/core/good_hot.cc': GOOD_HOT,
    'src/core/good_lock.cc': GOOD_LOCK,
    'src/core/good_ordered.cc': GOOD_ORDERED,
    'src/core/good_queue.cc': GOOD_QUEUE,
    'src/core/good_shared.cc': GOOD_SHARED,
    'src/core/good_unref.hh': GOOD_UNREF,
    'tests/good_refs.cc': GOOD_REFS,
}

STUB_FILES = {
    'src/sim/stats_registry.hh': STUB_STATS_REGISTRY,
    'src/sim/parallel.hh': STUB_PARALLEL,
    'src/core/flat_table.hh': STUB_FLAT_TABLE,
}


def _lexer_regressions():
    """Pin the three historical stripper bugs."""
    failures = []

    def check(cond, what):
        if not cond:
            failures.append(what)

    # 1. Raw strings: content blanked through the delimiter, code
    #    after the literal still visible.
    raw = 'const char *s = R"(rand() "x" NULL)"; std::abort();'
    code = lexer.strip_comments_and_strings(raw)
    check(len(code) == len(raw), 'raw string: length preserved')
    check('rand' not in code, 'raw string: content blanked')
    check('NULL' not in code, 'raw string: NULL blanked')
    check('std::abort' in code, 'raw string: code after survives')

    # 2. Line-continuation backslash extends a // comment.
    raw = '// comment \\\nrand();\nsrand(7);\n'
    code = lexer.strip_comments_and_strings(raw)
    check(len(code) == len(raw), 'comment splice: length preserved')
    check('rand()' not in code.split('\n')[1],
          'comment splice: spliced line is comment')
    check('srand' in code, 'comment splice: next real line is code')

    # 3. Digit separators are not char literals.
    raw = "int x = 1'000'000; std::abort(); char c = '0';"
    code = lexer.strip_comments_and_strings(raw)
    check(len(code) == len(raw), 'digit sep: length preserved')
    check('std::abort' in code, 'digit sep: code after survives')
    check("'0'" not in code, 'digit sep: real char literal blanked')

    # 4. Block comments do not nest (ISO C++): the first */ closes.
    raw = '/* a /* b */ std::abort();'
    code = lexer.strip_comments_and_strings(raw)
    check('std::abort' in code, 'block comment: closes at first */')

    # 5. Escaped quotes inside strings.
    raw = 'const char *q = "a \\" rand() b"; srand(1);'
    code = lexer.strip_comments_and_strings(raw)
    check('rand()' not in code.replace('srand', ''),
          'escaped quote: content blanked')
    check('srand' in code, 'escaped quote: code after survives')

    return failures


def run():
    failures = _lexer_regressions()
    for what in failures:
        print('self-test: lexer regression failed: %s' % what,
              file=sys.stderr)

    with tempfile.TemporaryDirectory() as root:
        for rel, text in {**BAD_FILES, **GOOD_FILES,
                          **STUB_FILES}.items():
            path = os.path.join(root, rel)
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with open(path, 'w') as f:
                f.write(text)
        project = Project.load(root)
        findings = rules.run_all(project)

    bad_rules = {f.rule for f in findings if '/bad' in f.path}
    good_hits = [f for f in findings if '/good' in f.path or
                 ('/sim/' in f.path and '/bad' not in f.path)]

    ok = not failures
    for rule in sorted(set(rules.RULE_IDS) - bad_rules):
        print('self-test: rule %s did not fire on the bad inputs'
              % rule, file=sys.stderr)
        ok = False
    for f in findings:
        if f.rule not in rules.RULE_IDS:
            print('self-test: unknown rule id %s' % f.rule,
                  file=sys.stderr)
            ok = False
    io_bad = [f for f in findings if f.rule == 'no-unchecked-io' and
              f.path.endswith('src/core/bad.hh')]
    if len(io_bad) != 4:
        print('self-test: no-unchecked-io fired %d times on bad.hh, '
              'want 4 (fread, std::fread, ::read, three-argument '
              'read)' % len(io_bad), file=sys.stderr)
        ok = False
    if not any(f.rule == 'no-naked-new' and
               f.path.endswith('src/sim/bad_new.cc') for f in findings):
        print('self-test: no-naked-new did not fire in src/sim/',
              file=sys.stderr)
        ok = False
    for f in good_hits:
        print('self-test: false positive on clean input: %s' % f,
              file=sys.stderr)
        ok = False

    print('vstream_analyze self-test: %s (%d rules, %d synthetic '
          'findings)' % ('OK' if ok else 'FAILED',
                         len(rules.RULE_IDS), len(findings)))
    return 0 if ok else 1
