#include "util/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <memory>
#include <stdexcept>

namespace spider::util {

ThreadPool::ThreadPool(std::size_t num_threads) {
    if (num_threads == 0) {
        throw std::invalid_argument{"ThreadPool: need at least one thread"};
    }
    workers_.reserve(num_threads);
    for (std::size_t i = 0; i < num_threads; ++i) {
        workers_.emplace_back([this] { worker_loop(); });
    }
}

ThreadPool::~ThreadPool() {
    {
        const std::lock_guard lock{mutex_};
        stopping_ = true;
    }
    cv_.notify_all();
    for (auto& worker : workers_) {
        worker.join();
    }
}

void ThreadPool::worker_loop() {
    for (;;) {
        std::function<void()> task;
        {
            std::unique_lock lock{mutex_};
            cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
            if (stopping_ && queue_.empty()) return;
            task = std::move(queue_.front());
            queue_.pop();
        }
        task();
    }
}

void ThreadPool::parallel_for(std::size_t count,
                              const std::function<void(std::size_t)>& fn) {
    const std::size_t grain =
        std::max<std::size_t>(1, count / (workers_.size() * 4));
    parallel_for(count, grain, [&fn](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
            fn(i);
        }
    });
}

void ThreadPool::parallel_for(
    std::size_t count, std::size_t grain,
    const std::function<void(std::size_t, std::size_t)>& fn) {
    if (count == 0) return;
    if (grain == 0) grain = 1;
    if (grain >= count) {  // one chunk: no dispatch, run on the caller
        fn(0, count);
        return;
    }
    // Chunks are claimed from a shared cursor by the caller and by up to
    // one helper per worker, so a call never waits for a chunk to reach
    // the front of the queue: the caller works through whatever no helper
    // has claimed. The state is shared-owned because a helper may wake up
    // after the call returned; it then finds the cursor exhausted and never
    // touches `fn`, which belongs to the caller.
    struct Shared {
        const std::function<void(std::size_t, std::size_t)>* fn;
        std::size_t count;
        std::size_t grain;
        std::size_t chunks;
        std::atomic<std::size_t> next{0};
        std::vector<std::exception_ptr> errors;  // one slot per chunk
        std::mutex mutex;
        std::size_t finished = 0;  // guarded by mutex
        std::condition_variable all_done;
    };
    const auto shared = std::make_shared<Shared>();
    shared->fn = &fn;
    shared->count = count;
    shared->grain = grain;
    shared->chunks = (count + grain - 1) / grain;
    shared->errors.resize(shared->chunks);

    const auto run_chunks = [](Shared& s) {
        std::size_t ran = 0;
        for (std::size_t chunk = s.next++; chunk < s.chunks; chunk = s.next++) {
            const std::size_t begin = chunk * s.grain;
            try {
                (*s.fn)(begin, std::min(begin + s.grain, s.count));
            } catch (...) {
                s.errors[chunk] = std::current_exception();
            }
            ++ran;
        }
        if (ran == 0) return;
        const std::lock_guard lock{s.mutex};
        s.finished += ran;
        if (s.finished == s.chunks) s.all_done.notify_all();
    };

    const std::size_t helpers = std::min(workers_.size(), shared->chunks - 1);
    {
        const std::lock_guard lock{mutex_};
        if (stopping_) {
            throw std::runtime_error{"ThreadPool: submit after shutdown"};
        }
        for (std::size_t i = 0; i < helpers; ++i) {
            queue_.emplace([shared, run_chunks] { run_chunks(*shared); });
        }
    }
    for (std::size_t i = 0; i < helpers; ++i) cv_.notify_one();

    run_chunks(*shared);
    // Every chunk is claimed by now; wait for the ones helpers still run.
    {
        std::unique_lock lock{shared->mutex};
        shared->all_done.wait(
            lock, [&] { return shared->finished == shared->chunks; });
    }
    // Take the errors out: a helper that has not yet dropped its reference
    // must not be the one to release an exception the caller rethrows.
    const std::vector<std::exception_ptr> errors = std::move(shared->errors);
    for (const std::exception_ptr& error : errors) {
        if (error) std::rethrow_exception(error);
    }
}

}  // namespace spider::util
