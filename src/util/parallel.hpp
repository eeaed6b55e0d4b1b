/**
 * @file
 * Minimal deterministic work-sharing helper for the benchmark drivers.
 *
 * Simulations are independent (each owns its memory models), so benches
 * fan scene x configuration grids across threads. Results are stored by
 * index, keeping output ordering deterministic regardless of thread
 * interleaving.
 *
 * Worker threads count against a process-wide busy-thread budget that
 * nested parallel work claims helpers from (tryClaimHelperThread()).
 *
 * Exceptions thrown by @p fn on a worker thread are captured (first one
 * wins), remaining iterations are abandoned, and the exception is
 * rethrown on the calling thread after all workers joined — a worker
 * throw is a regular error, not std::terminate.
 */

#ifndef SMS_UTIL_PARALLEL_HPP
#define SMS_UTIL_PARALLEL_HPP

#include <atomic>
#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <functional>
#include <thread>
#include <vector>

namespace sms {

/**
 * Default worker count for parallelFor's threads==0 mode: SMS_THREADS
 * when set to a positive integer, otherwise hardware_concurrency()
 * (with a fallback of 4 when even that is unknown). Parsed once per
 * process; a malformed value warns and falls through to the hardware
 * default rather than silently serializing.
 */
inline unsigned
defaultThreadCount()
{
    static const unsigned count = [] {
        const char *env = std::getenv("SMS_THREADS");
        if (env && *env) {
            char *end = nullptr;
            unsigned long n = std::strtoul(env, &end, 10);
            if (end && !*end && n >= 1 && n <= 65536)
                return static_cast<unsigned>(n);
            std::fprintf(stderr,
                         "sms: SMS_THREADS='%s' is not a thread count "
                         "in 1..65536; using the hardware default\n",
                         env);
        }
        unsigned hw = std::thread::hardware_concurrency();
        return hw == 0 ? 4u : hw;
    }();
    return count;
}

/**
 * Optional occupancy instrumentation. The metrics layer (which sits
 * above this header in the link order, so it cannot be called
 * directly from here) installs begin/end hooks that publish the
 * worker count and iteration total of each parallelFor region as
 * gauges/counters. Null by default: one relaxed load per region is
 * the entire cost when telemetry is off.
 */
using ParallelForHook = void (*)(unsigned threads, size_t n);

namespace detail {
inline std::atomic<ParallelForHook> g_parallel_begin{nullptr};
inline std::atomic<ParallelForHook> g_parallel_end{nullptr};
} // namespace detail

/** Install (or clear, with nullptrs) the region hooks. */
inline void
setParallelForHooks(ParallelForHook begin, ParallelForHook end)
{
    detail::g_parallel_begin.store(begin, std::memory_order_relaxed);
    detail::g_parallel_end.store(end, std::memory_order_relaxed);
}

namespace detail {
/** Runs the begin hook now and the end hook at scope exit. */
struct ParallelRegionScope
{
    unsigned threads;
    size_t n;
    ParallelRegionScope(unsigned threads_, size_t n_)
        : threads(threads_), n(n_)
    {
        if (ParallelForHook hook =
                g_parallel_begin.load(std::memory_order_relaxed))
            hook(threads, n);
    }
    ~ParallelRegionScope()
    {
        if (ParallelForHook hook =
                g_parallel_end.load(std::memory_order_relaxed))
            hook(threads, n);
    }
};

/** Threads running parallel work: parallelFor workers plus helpers. */
inline std::atomic<unsigned> g_busy_threads{0};

/** Counts the current thread as busy for its lifetime. */
struct BusyThreadScope
{
    BusyThreadScope()
    {
        g_busy_threads.fetch_add(1, std::memory_order_relaxed);
    }
    ~BusyThreadScope()
    {
        g_busy_threads.fetch_sub(1, std::memory_order_relaxed);
    }
};
} // namespace detail

/**
 * Claim a slot for one helper thread of nested parallel work (a task
 * inside a parallelFor iteration, say). The claim succeeds only while
 * fewer than @p threads threads run parallel work process-wide, so
 * helpers fill cores that parallelFor workers have left idle instead of
 * oversubscribing busy ones. Release with releaseHelperThread().
 */
inline bool
tryClaimHelperThread(unsigned threads)
{
    unsigned busy = detail::g_busy_threads.load(std::memory_order_relaxed);
    while (busy < threads) {
        if (detail::g_busy_threads.compare_exchange_weak(
                busy, busy + 1, std::memory_order_relaxed))
            return true;
    }
    return false;
}

/** Give back a slot taken by tryClaimHelperThread(). */
inline void
releaseHelperThread()
{
    detail::g_busy_threads.fetch_sub(1, std::memory_order_relaxed);
}

/**
 * Run fn(i) for i in [0, n) across up to @p threads workers.
 * Blocks until all iterations finish. fn must be thread-safe.
 *
 * @param chunk iterations claimed per atomic grab. 1 (the default)
 *              balances best; larger chunks cut contention when
 *              iterations are tiny and uniform. The iteration->index
 *              mapping (and thus every result slot) is identical for
 *              any chunk size — only the thread assignment changes.
 */
inline void
parallelFor(size_t n, const std::function<void(size_t)> &fn,
            unsigned threads = 0, size_t chunk = 1)
{
    if (n == 0)
        return;
    if (chunk == 0)
        chunk = 1;
    if (threads == 0)
        threads = defaultThreadCount();
    // One worker per *chunk*, not per iteration: with chunk > 1 a
    // thread claims `chunk` iterations per grab, so spawning more
    // workers than chunks just creates threads that grab nothing (and
    // the old per-iteration clamp never accounted for chunking at all).
    size_t chunks = (n + chunk - 1) / chunk;
    if (threads > chunks)
        threads = static_cast<unsigned>(chunks);
    detail::ParallelRegionScope region(threads, n);
    if (threads <= 1) {
        for (size_t i = 0; i < n; ++i)
            fn(i);
        return;
    }

    std::atomic<size_t> next{0};
    std::atomic<bool> failed{false};
    std::exception_ptr first_error;
    std::atomic<bool> error_claimed{false};

    std::vector<std::thread> workers;
    workers.reserve(threads);
    for (unsigned t = 0; t < threads; ++t) {
        workers.emplace_back([&]() {
            detail::BusyThreadScope busy;
            for (;;) {
                if (failed.load(std::memory_order_relaxed))
                    return;
                size_t base = next.fetch_add(chunk);
                if (base >= n)
                    return;
                size_t end = base + chunk < n ? base + chunk : n;
                for (size_t i = base; i < end; ++i) {
                    try {
                        fn(i);
                    } catch (...) {
                        // First thrower records; everyone drains out.
                        if (!error_claimed.exchange(true))
                            first_error = std::current_exception();
                        failed.store(true, std::memory_order_relaxed);
                        return;
                    }
                }
            }
        });
    }
    for (std::thread &w : workers)
        w.join();
    if (first_error)
        std::rethrow_exception(first_error);
}

} // namespace sms

#endif // SMS_UTIL_PARALLEL_HPP
