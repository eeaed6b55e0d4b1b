/**
 * @file
 * Span recorder implementation.
 */

#include "hostbench/src/spans.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <mutex>
#include <unordered_map>
#include <utility>

#include "src/util/parallel.hpp"

namespace hostbench {

namespace {

std::atomic<bool> g_on{false};
std::atomic<uint32_t> g_run{0};
std::atomic<uint32_t> g_next_id{1};

std::mutex g_mutex;
std::map<uint32_t, RunTrace> g_runs; // guarded by g_mutex

thread_local uint32_t t_parent = 0;

/** Makes a span the calling thread's enclosing span for a scope. */
class SpanParent
{
  public:
    explicit SpanParent(uint32_t parent) : saved_(t_parent)
    {
        t_parent = parent;
    }
    ~SpanParent() { t_parent = saved_; }
    SpanParent(const SpanParent &) = delete;
    SpanParent &operator=(const SpanParent &) = delete;

  private:
    uint32_t saved_;
};

uint64_t
nowNs()
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

} // namespace

void
spansBeginRun(uint32_t run)
{
    g_run.store(run, std::memory_order_relaxed);
    g_on.store(true, std::memory_order_release);
}

void
spansEndRun()
{
    g_on.store(false, std::memory_order_release);
}

bool
spansOn()
{
    return g_on.load(std::memory_order_acquire);
}

SpanScope::SpanScope(const char *name) : name_(name)
{
    if (!spansOn())
        return;
    id_ = g_next_id.fetch_add(1, std::memory_order_relaxed);
    parent_ = t_parent;
    run_ = g_run.load(std::memory_order_relaxed);
    t_parent = id_;
    start_ns_ = nowNs();
}

SpanScope::~SpanScope()
{
    if (id_ == 0)
        return;
    uint64_t end_ns = nowNs();
    t_parent = parent_;
    std::lock_guard<std::mutex> lock(g_mutex);
    g_runs[run_].spans.push_back(
        Span{name_, start_ns_, end_ns, id_, parent_, run_});
}

void
spanCount(const char *name, uint64_t n)
{
    if (!spansOn())
        return;
    uint32_t run = g_run.load(std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(g_mutex);
    g_runs[run].counts[name] += n;
}

void
tracedParallelFor(size_t n, unsigned threads,
                  const std::function<void(size_t)> &fn)
{
    SpanScope span("util.parallel_for");
    const uint32_t parent = span.id();
    sms::parallelFor(
        n,
        [&](size_t i) {
            SpanParent scope(parent);
            fn(i);
        },
        threads);
}

std::map<uint32_t, RunTrace>
spansByRun()
{
    std::lock_guard<std::mutex> lock(g_mutex);
    return g_runs;
}

std::vector<double>
selfSeconds(const std::vector<Span> &spans)
{
    std::unordered_map<uint32_t, size_t> index;
    for (size_t i = 0; i < spans.size(); ++i)
        index.emplace(spans[i].id, i);
    std::vector<std::vector<std::pair<uint64_t, uint64_t>>> children(
        spans.size());
    for (const Span &s : spans) {
        auto it = index.find(s.parent);
        if (it != index.end())
            children[it->second].emplace_back(s.start_ns, s.end_ns);
    }
    std::vector<double> self(spans.size());
    for (size_t i = 0; i < spans.size(); ++i) {
        const uint64_t lo = spans[i].start_ns, hi = spans[i].end_ns;
        auto &kids = children[i];
        std::sort(kids.begin(), kids.end());
        uint64_t covered = 0, reach = lo;
        for (auto [start, end] : kids) {
            start = std::max(start, reach);
            end = std::min(end, hi);
            if (end > start) {
                covered += end - start;
                reach = end;
            }
        }
        self[i] = static_cast<double>(hi - lo - covered) * 1e-9;
    }
    return self;
}

bool
writeSpans(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    for (const auto &[run, trace] : spansByRun()) {
        for (const Span &s : trace.spans)
            std::fprintf(f,
                         "{\"run\":%u,\"id\":%u,\"parent\":%u,"
                         "\"name\":\"%s\",\"start_ns\":%llu,"
                         "\"end_ns\":%llu}\n",
                         s.run, s.id, s.parent, s.name,
                         static_cast<unsigned long long>(s.start_ns),
                         static_cast<unsigned long long>(s.end_ns));
        for (const auto &[name, n] : trace.counts)
            std::fprintf(f, "{\"run\":%u,\"count\":\"%s\",\"value\":%llu}\n",
                         run, name.c_str(),
                         static_cast<unsigned long long>(n));
    }
    return std::fclose(f) == 0;
}

} // namespace hostbench
