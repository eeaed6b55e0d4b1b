/**
 * @file
 * In-memory span and count recorder for the benchmark's traced runs.
 *
 * The benchmark opens a span around every call it makes into a layer of
 * the simulator library (scene generation, BVH build, render, stores,
 * simulation, parallelFor). Spans are kept in memory with their name,
 * start, end, parent span and run id (one run per measured iteration),
 * and written out when the benchmark ends. Counts are recorded at the
 * same boundaries. While recording is off, every call here is a single
 * relaxed load and the clock is never read, so untraced iterations time
 * the library alone.
 */

#ifndef HOSTBENCH_SPANS_HPP
#define HOSTBENCH_SPANS_HPP

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

namespace hostbench {

/** One closed span; times are steady-clock nanoseconds. */
struct Span
{
    const char *name;
    uint64_t start_ns;
    uint64_t end_ns;
    uint32_t id;     ///< 1-based; 0 means "no span"
    uint32_t parent; ///< enclosing span id, 0 at a run's root
    uint32_t run;
};

/** Start recording spans and counts under run id @p run. */
void spansBeginRun(uint32_t run);

/** Stop recording; later spans and counts are dropped. */
void spansEndRun();

/** True while a run is being recorded. */
bool spansOn();

/**
 * RAII span. Its parent is the innermost open span of the calling
 * thread; on a tracedParallelFor worker, the span that launched it.
 */
class SpanScope
{
  public:
    explicit SpanScope(const char *name);
    ~SpanScope();
    SpanScope(const SpanScope &) = delete;
    SpanScope &operator=(const SpanScope &) = delete;

    /** Id of this span (0 when not recording). */
    uint32_t id() const { return id_; }

  private:
    const char *name_;
    uint64_t start_ns_ = 0;
    uint32_t id_ = 0;
    uint32_t parent_ = 0;
    uint32_t run_ = 0;
};

/** Add @p n to count @p name of the current run (no-op when off). */
void spanCount(const char *name, uint64_t n);

/** Run @p fn inside a span named @p name and return its result. */
template <typename Fn>
auto
traced(const char *name, Fn &&fn)
{
    SpanScope span(name);
    return fn();
}

/**
 * sms::parallelFor over @p n iterations on @p threads workers, inside a
 * "util.parallel_for" span that parents the workers' spans.
 */
void tracedParallelFor(size_t n, unsigned threads,
                       const std::function<void(size_t)> &fn);

/** Everything recorded for one run. */
struct RunTrace
{
    std::vector<Span> spans;
    std::map<std::string, uint64_t> counts;
};

/** Recorded runs by run id. */
std::map<uint32_t, RunTrace> spansByRun();

/**
 * Self time of each span: its duration minus the part of its interval
 * covered by the union of its children's intervals. Parallel children
 * overlap, so a parallelFor span's self time is the time no worker
 * span was open. Indexed like @p spans.
 */
std::vector<double> selfSeconds(const std::vector<Span> &spans);

/** Write every recorded span and count as JSON lines to @p path. */
bool writeSpans(const std::string &path);

} // namespace hostbench

#endif // HOSTBENCH_SPANS_HPP
