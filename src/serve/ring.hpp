/**
 * @file
 * Bounded MPSC/SPSC ring for the serving layer (DESIGN.md Sec. 10).
 *
 * Every queue in src/serve/ is one of these: fixed capacity chosen at
 * session admission, never resized, so a misbehaving peer can occupy
 * at most its configured budget and "the queue grew until the OOM
 * killer arrived" is structurally impossible. Backpressure is explicit
 * rather than implicit: tryPush() refuses instead of blocking, and the
 * caller decides the degradation — pause the reader (flow control),
 * shed the item (accounted drop), or close the session.
 *
 * A producer that must never wait (the shared batcher) takes credit
 * first: reserve() sets free slots aside, plain pushes treat them as
 * taken, and pushReserved() fills one later without a capacity check.
 *
 * close() makes the ring drain-only: pushes fail immediately, pops
 * keep returning queued items until empty, and every waiter wakes.
 * A high-watermark is kept so health snapshots can report how close a
 * queue came to its bound.
 */

#ifndef ST_SERVE_RING_HPP
#define ST_SERVE_RING_HPP

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <mutex>
#include <optional>
#include <utility>

namespace st::serve {

/** A bounded, closable FIFO with blocking and non-blocking ends. */
template <typename T> class BoundedRing
{
  public:
    explicit BoundedRing(size_t capacity) : capacity_(capacity) {}

    BoundedRing(const BoundedRing &) = delete;
    BoundedRing &operator=(const BoundedRing &) = delete;

    /**
     * Non-blocking push: false when closed or when every slot is
     * queued or reserved (backpressure).
     */
    bool
    tryPush(T item)
    {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            if (closed_ || !hasFreeSlot())
                return false;
            items_.push_back(std::move(item));
            raiseHighWater(items_.size());
        }
        notEmpty_.notify_one();
        return true;
    }

    /**
     * Blocking push with a deadline: waits for space up to @p timeout.
     * False when the ring is still full at the deadline or was closed
     * while waiting — the caller must shed or escalate, never retry
     * blindly.
     */
    bool
    pushWait(T item, std::chrono::milliseconds timeout)
    {
        std::unique_lock<std::mutex> lock(mutex_);
        if (!notFull_.wait_for(lock, timeout,
                               [&] { return closed_ || hasFreeSlot(); }))
            return false;
        if (closed_)
            return false;
        items_.push_back(std::move(item));
        raiseHighWater(items_.size());
        lock.unlock();
        notEmpty_.notify_one();
        return true;
    }

    /**
     * Set up to @p n free slots aside for pushReserved(); returns how
     * many were granted (0 when full or closed).
     */
    size_t
    reserve(size_t n)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (closed_)
            return 0;
        const size_t granted =
            std::min(n, capacity_ - items_.size() - reserved_);
        reserved_ += granted;
        return granted;
    }

    /** Return @p n reserved slots unused. */
    void
    unreserve(size_t n)
    {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            reserved_ -= std::min(n, reserved_);
        }
        notFull_.notify_all();
    }

    /**
     * Push into a reserved slot. With no reservation outstanding this
     * is tryPush(). False only when closed or, unreserved, full.
     */
    bool
    pushReserved(T item)
    {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            if (closed_)
                return false;
            if (reserved_ > 0)
                --reserved_;
            else if (!hasFreeSlot())
                return false;
            items_.push_back(std::move(item));
            raiseHighWater(items_.size());
        }
        notEmpty_.notify_one();
        return true;
    }

    /** Non-blocking pop: nullopt when empty. */
    std::optional<T>
    tryPop()
    {
        std::unique_lock<std::mutex> lock(mutex_);
        if (items_.empty())
            return std::nullopt;
        return popLocked(lock);
    }

    /**
     * Blocking pop: waits up to @p timeout for an item. nullopt means
     * empty at the deadline, or closed and fully drained.
     */
    std::optional<T>
    popWait(std::chrono::milliseconds timeout)
    {
        std::unique_lock<std::mutex> lock(mutex_);
        notEmpty_.wait_for(lock, timeout,
                           [&] { return closed_ || !items_.empty(); });
        if (items_.empty())
            return std::nullopt;
        return popLocked(lock);
    }

    /** Drain-only mode: pushes fail, pops empty the queue, all wake. */
    void
    close()
    {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            closed_ = true;
        }
        notEmpty_.notify_all();
        notFull_.notify_all();
    }

    bool
    closed() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return closed_;
    }

    size_t
    size() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return items_.size();
    }

    size_t capacity() const { return capacity_; }

    /**
     * Deepest occupancy ever observed (for health snapshots). An
     * atomic so health/metrics readers never contend with (or race
     * against) the push paths — a snapshot poll must not perturb the
     * queues it is measuring.
     */
    size_t
    highWater() const
    {
        return highWater_.load(std::memory_order_relaxed);
    }

  private:
    /** Called with mutex_ held: a slot neither queued nor reserved. */
    bool
    hasFreeSlot() const
    {
        return items_.size() + reserved_ < capacity_;
    }

    /** Called with mutex_ held; pushes are serialized, so a plain
     *  store (no CAS max loop) cannot go backwards. */
    void
    raiseHighWater(size_t depth)
    {
        if (depth > highWater_.load(std::memory_order_relaxed))
            highWater_.store(depth, std::memory_order_relaxed);
    }

    std::optional<T>
    popLocked(std::unique_lock<std::mutex> &lock)
    {
        T item = std::move(items_.front());
        items_.pop_front();
        lock.unlock();
        notFull_.notify_one();
        return item;
    }

    const size_t capacity_;
    mutable std::mutex mutex_;
    std::condition_variable notEmpty_;
    std::condition_variable notFull_;
    std::deque<T> items_;
    std::atomic<size_t> highWater_{0};
    size_t reserved_ = 0; //!< slots set aside for pushReserved()
    bool closed_ = false;
};

} // namespace st::serve

#endif // ST_SERVE_RING_HPP
