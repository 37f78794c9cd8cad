#ifndef PERFBENCH_LOOPBACKLOAD_H_
#define PERFBENCH_LOOPBACKLOAD_H_

/**
 * @file
 * The benchmark's client: one thread, a few loopback connections,
 * poll-driven. It sends Submits in a closed loop (one outstanding per
 * connection), decodes every Result,
 * deserializes and verifies every proof, and gives each task id exactly
 * one terminal outcome. Host wall clock throughout.
 */

#include <algorithm>
#include <deque>
#include <limits>
#include <optional>
#include <unordered_map>
#include <vector>

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <thread>

#include "Workload.h"
#include "core/HighDegreeSnark.h"
#include "core/Serialize.h"
#include "core/Snark.h"
#include "ff/Fields.h"
#include "net/Socket.h"
#include "net/Wire.h"

namespace perfbench {

enum class Outcome : uint8_t {
    Pending,
    Verified,
    VerifyFailed,
    Shed,
    Retry,
    Invalid,
    Timeout,
    Lost,
};

inline const char *
outcomeName(Outcome o)
{
    switch (o) {
      case Outcome::Pending:
        return "pending";
      case Outcome::Verified:
        return "verified";
      case Outcome::VerifyFailed:
        return "verify_failed";
      case Outcome::Shed:
        return "shed";
      case Outcome::Retry:
        return "retry";
      case Outcome::Invalid:
        return "invalid";
      case Outcome::Timeout:
        return "timeout";
      case Outcome::Lost:
        return "lost";
    }
    return "?";
}

/** One task's client-side life (nowMs timestamps). */
struct TaskRecord
{
    bzk::net::Submit submit;
    bool measured = false;
    double send = 0;
    double decoded = 0;
    double deser_begin = 0, deser_end = 0, verify_end = 0;
    Outcome outcome = Outcome::Pending;
    /** Index of the connection the task was sent on. */
    size_t conn = 0;
    size_t proof_bytes = 0;
    /** Proof bytes, kept only when the caller asks (traced run). */
    std::vector<uint8_t> proof;

    double latency() const { return verify_end - send; }
};

/** Client-side verifiers for the one circuit-size class in use. */
class Verifier
{
  public:
    explicit Verifier(uint32_t n_vars)
        : table_(n_vars, kEncoderSeed, kColumnOpenings),
          gate_(n_vars, kEncoderSeed, kColumnOpenings)
    {
    }

    /** Deserialize + verify, stamping deser_begin/deser_end/verify_end. */
    bool
    check(TaskRecord &t, const std::vector<uint8_t> &bytes) const
    {
        t.deser_begin = nowMs();
        bool ok = false;
        if (t.submit.kind == ProtocolKind::HighDegreeGate) {
            auto proof = bzk::deserializeHighDegreeProof<bzk::Fr>(bytes);
            t.deser_end = nowMs();
            ok = proof && gate_.verify(*proof, {});
        } else {
            auto proof = bzk::deserializeProof<bzk::Fr>(bytes);
            t.deser_end = nowMs();
            ok = proof && table_.verify(*proof, {});
        }
        t.verify_end = nowMs();
        return ok;
    }

  private:
    bzk::Snark<bzk::Fr> table_;
    bzk::HighDegreeSnark<bzk::Fr> gate_;
};

/** One handshaken, non-blocking client connection. */
struct Conn
{
    bzk::net::Fd fd;
    bzk::net::FrameDecoder decoder;
    uint8_t version = bzk::net::kMinWireVersion;
    std::vector<uint8_t> out;
    size_t outstanding = 0;
};

/**
 * Connect to 127.0.0.1:@p port and finish the Hello handshake within
 * @p timeout_ms. nullopt on any failure.
 */
inline std::optional<Conn>
connectHandshake(uint16_t port, double timeout_ms = 5000.0)
{
    using namespace bzk::net;
    double deadline = nowMs() + timeout_ms;
    Conn c;
    while (!c.fd.valid() && nowMs() < deadline) {
        c.fd = connectTcp(port);
        if (!c.fd.valid())
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    if (!c.fd.valid() || !setNonBlocking(c.fd.get()))
        return std::nullopt;
    int one = 1;
    ::setsockopt(c.fd.get(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    c.out = encodeFrame(Message{Hello{}}, kMinWireVersion);
    while (nowMs() < deadline) {
        if (!c.out.empty()) {
            ptrdiff_t n = sendSome(c.fd.get(), c.out);
            if (n < 0)
                return std::nullopt;
            c.out.erase(c.out.begin(), c.out.begin() + n);
        }
        if (auto polled = c.decoder.poll()) {
            auto *msg = std::get_if<Message>(&*polled);
            auto *ack = msg ? std::get_if<HelloAck>(msg) : nullptr;
            if (!ack || ack->version < 2)
                return std::nullopt;
            c.version = ack->version;
            return c;
        }
        pollfd pfd = {c.fd.get(), POLLIN, 0};
        ::poll(&pfd, 1, 1);
        uint8_t buf[4096];
        ptrdiff_t n = recvSome(c.fd.get(), buf);
        if (n < 0)
            return std::nullopt;
        c.decoder.feed(std::span<const uint8_t>(buf, size_t(n)));
    }
    return std::nullopt;
}

/** What one driven phase delivered. */
struct LoadResult
{
    std::vector<TaskRecord> tasks;
    /** Measured window: first send to last terminal outcome. */
    double begin = 0, end = 0;
    size_t duplicate_results = 0;
    size_t unknown_results = 0;
    bool connection_lost = false;
};

/**
 * Drives one workload over @p conns: an untimed warm-up, then the
 * measured phase, which sends for @p seconds and collects what is
 * outstanding. Results not terminal within kDrainMs after the last
 * send count as timeouts.
 */
class LoadDriver
{
  public:
    static constexpr double kDrainMs = 60000.0;

    LoadDriver(const Workload &w, TaskStream &stream,
               const Verifier &verifier, std::vector<Conn> &conns,
               bool keep_proofs)
        : w_(w), stream_(stream), verifier_(verifier), conns_(conns),
          keep_proofs_(keep_proofs)
    {
    }

    LoadResult
    run(double seconds)
    {
        // Warm-up: caches, allocator, worker pools.
        phase(false, w_.warmup_tasks, std::numeric_limits<double>::max());
        size_t first_measured = res_.tasks.size();
        double begin = nowMs();
        phase(true, std::numeric_limits<size_t>::max(),
              begin + seconds * 1e3);
        res_.begin = begin;
        res_.end = begin;
        for (size_t i = first_measured; i < res_.tasks.size(); ++i)
            res_.end = std::max(res_.end, res_.tasks[i].verify_end);
        return std::move(res_);
    }

  private:
    void
    send(size_t conn_index, bool measured)
    {
        Conn &c = conns_[conn_index];
        TaskRecord t;
        t.submit = stream_.next();
        t.measured = measured;
        t.send = nowMs();
        t.conn = conn_index;
        index_[t.submit.task_id] = res_.tasks.size();
        auto frame = bzk::net::encodeFrame(bzk::net::Message{t.submit},
                                           c.version);
        c.out.insert(c.out.end(), frame.begin(), frame.end());
        ++c.outstanding;
        res_.tasks.push_back(std::move(t));
        flush(c);
    }

    void
    flush(Conn &c)
    {
        if (c.out.empty() || !c.fd.valid())
            return;
        ptrdiff_t n = bzk::net::sendSome(c.fd.get(), c.out);
        if (n < 0) {
            lose(c);
            return;
        }
        c.out.erase(c.out.begin(), c.out.begin() + n);
    }

    void
    lose(Conn &c)
    {
        res_.connection_lost = true;
        c.fd.close();
    }

    void
    finish(uint64_t id, Outcome outcome)
    {
        TaskRecord &t = res_.tasks[index_.at(id)];
        t.outcome = outcome;
        if (t.verify_end == 0)
            t.verify_end = nowMs();
        --conns_[t.conn].outstanding;
    }

    void
    onResult(bzk::net::Result &&r)
    {
        using bzk::net::Status;
        auto it = index_.find(r.task_id);
        if (it == index_.end()) {
            ++res_.unknown_results;
            return;
        }
        TaskRecord &t = res_.tasks[it->second];
        if (t.outcome != Outcome::Pending || t.decoded != 0) {
            ++res_.duplicate_results;
            return;
        }
        t.decoded = nowMs();
        switch (r.status) {
          case Status::Ok:
            verify_queue_.push_back({r.task_id, std::move(r.proof)});
            break;
          case Status::Retry:
            finish(r.task_id, Outcome::Retry);
            break;
          case Status::Shed:
            finish(r.task_id, Outcome::Shed);
            break;
          case Status::Invalid:
            finish(r.task_id, Outcome::Invalid);
            break;
        }
    }

    void
    verifyOne()
    {
        auto [id, bytes] = std::move(verify_queue_.front());
        verify_queue_.pop_front();
        TaskRecord &t = res_.tasks[index_.at(id)];
        t.proof_bytes = bytes.size();
        bool ok = verifier_.check(t, bytes);
        if (keep_proofs_)
            t.proof = std::move(bytes);
        finish(id, ok ? Outcome::Verified : Outcome::VerifyFailed);
    }

    void
    pollConns(double timeout_ms)
    {
        std::vector<pollfd> pfds;
        for (Conn &c : conns_)
            pfds.push_back({c.fd.get(),
                            short(POLLIN | (c.out.empty() ? 0 : POLLOUT)),
                            0});
        timespec ts;
        timeout_ms = std::max(0.0, timeout_ms);
        ts.tv_sec = static_cast<time_t>(timeout_ms / 1e3);
        ts.tv_nsec = static_cast<long>(
            (timeout_ms - static_cast<double>(ts.tv_sec) * 1e3) * 1e6);
        if (::ppoll(pfds.data(), pfds.size(), &ts, nullptr) <= 0)
            return;
        std::vector<uint8_t> buf(1 << 18);
        for (size_t i = 0; i < conns_.size(); ++i) {
            Conn &c = conns_[i];
            if (!c.fd.valid())
                continue;
            if (pfds[i].revents & POLLOUT)
                flush(c);
            if (!(pfds[i].revents & (POLLIN | POLLHUP | POLLERR)))
                continue;
            while (c.fd.valid()) {
                ptrdiff_t n = bzk::net::recvSome(c.fd.get(), buf);
                if (n < 0) {
                    lose(c);
                    break;
                }
                if (n == 0)
                    break;
                c.decoder.feed(
                    std::span<const uint8_t>(buf.data(), size_t(n)));
            }
            while (auto polled = c.decoder.poll()) {
                auto *msg = std::get_if<bzk::net::Message>(&*polled);
                auto *result =
                    msg ? std::get_if<bzk::net::Result>(msg) : nullptr;
                if (!result) {
                    lose(c);
                    break;
                }
                onResult(std::move(*result));
            }
        }
    }

    /**
     * Send and collect until the phase is complete: each idle
     * connection gets the next task until @p max_tasks are sent or
     * @p stop_at passes. Proofs are verified one at a time, each
     * before its connection's next send.
     */
    void
    phase(bool measured, size_t max_tasks, double stop_at)
    {
        size_t sent = 0;
        double drain_deadline = std::numeric_limits<double>::max();
        for (;;) {
            double now = nowMs();
            bool sending_done = sent >= max_tasks || now >= stop_at;
            for (size_t i = 0; i < conns_.size() && !sending_done &&
                               sent < max_tasks;
                 ++i) {
                if (conns_[i].outstanding == 0 && conns_[i].fd.valid()) {
                    send(i, measured);
                    ++sent;
                }
            }
            if (!verify_queue_.empty()) {
                verifyOne();
                continue;
            }
            size_t outstanding = 0;
            for (const Conn &c : conns_)
                outstanding += c.fd.valid() ? c.outstanding : 0;
            sending_done = sent >= max_tasks || now >= stop_at;
            if (sending_done && outstanding == 0)
                break;
            if (res_.connection_lost && outstanding == 0)
                break;
            if (sending_done &&
                drain_deadline == std::numeric_limits<double>::max())
                drain_deadline = now + kDrainMs;
            if (now > drain_deadline)
                break;
            double timeout = 20.0;
            if (!sending_done)
                timeout = std::min(timeout, stop_at - now);
            pollConns(timeout);
        }
        for (TaskRecord &t : res_.tasks) {
            if (t.outcome != Outcome::Pending)
                continue;
            bool dead = !conns_[t.conn].fd.valid();
            finish(t.submit.task_id,
                   dead ? Outcome::Lost : Outcome::Timeout);
        }
    }

    const Workload &w_;
    TaskStream &stream_;
    const Verifier &verifier_;
    std::vector<Conn> &conns_;
    bool keep_proofs_;
    LoadResult res_;
    std::unordered_map<uint64_t, size_t> index_;
    std::deque<std::pair<uint64_t, std::vector<uint8_t>>> verify_queue_;
};

} // namespace perfbench

#endif // PERFBENCH_LOOPBACKLOAD_H_
