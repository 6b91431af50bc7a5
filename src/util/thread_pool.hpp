#pragma once

// Fixed-size work-queue thread pool. Used by the multi-GPU simulator (one
// task per simulated GPU worker) and by the pipelined IS executor's
// background stage. Tasks are type-erased std::move_only_function-style
// callables; results flow back through std::future.

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <future>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace spider::util {

class ThreadPool {
public:
    explicit ThreadPool(std::size_t num_threads);
    ~ThreadPool();

    ThreadPool(const ThreadPool&) = delete;
    ThreadPool& operator=(const ThreadPool&) = delete;

    [[nodiscard]] std::size_t size() const { return workers_.size(); }

    /// Enqueues a task; the returned future yields the task's result (or
    /// rethrows its exception).
    template <typename F>
    auto submit(F&& fn) -> std::future<std::invoke_result_t<F>> {
        using R = std::invoke_result_t<F>;
        auto task = std::make_shared<std::packaged_task<R()>>(std::forward<F>(fn));
        std::future<R> result = task->get_future();
        {
            const std::lock_guard lock{mutex_};
            if (stopping_) {
                throw std::runtime_error{"ThreadPool: submit after shutdown"};
            }
            queue_.emplace([task]() { (*task)(); });
        }
        cv_.notify_one();
        return result;
    }

    /// Runs fn(i) for i in [0, count) across the pool and waits for all.
    /// Convenience wrapper over the chunked overload with a grain that
    /// yields ~4 chunks per worker.
    void parallel_for(std::size_t count, const std::function<void(std::size_t)>& fn);

    /// Chunked variant: runs fn(begin, end) over disjoint ranges of at most
    /// `grain` elements. The caller and up to one helper task per worker
    /// claim chunks from a shared cursor, so dispatch costs one queue push
    /// per helper, and a call made from inside a pool task completes even
    /// when every worker is busy. Always waits for every claimed chunk to
    /// finish (even when one throws) before rethrowing the first exception
    /// in chunk order. A single-chunk range runs inline on the caller.
    void parallel_for(std::size_t count, std::size_t grain,
                      const std::function<void(std::size_t, std::size_t)>& fn);

private:
    void worker_loop();

    std::vector<std::thread> workers_;
    std::queue<std::function<void()>> queue_;
    std::mutex mutex_;
    std::condition_variable cv_;
    bool stopping_ = false;
};

}  // namespace spider::util
