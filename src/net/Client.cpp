#include "net/Client.h"

#include <algorithm>
#include <chrono>
#include <thread>

#include <poll.h>

namespace bzk::net {

bool
SyncClient::connect(uint16_t port, uint64_t tenant, int attempts,
                    double retry_delay_ms)
{
    close();
    decoder_ = FrameDecoder();
    last_error_.reset();
    version_ = kMinWireVersion;
    for (int i = 0; i < attempts && !fd_.valid(); ++i) {
        fd_ = connectTcp(port);
        if (!fd_.valid())
            std::this_thread::sleep_for(
                std::chrono::duration<double, std::milli>(
                    retry_delay_ms));
    }
    if (!fd_.valid())
        return false;

    Hello hello;
    hello.tenant = tenant;
    if (!send(Message{hello}))
        return false;
    auto reply = receive();
    if (!reply) {
        close();
        return false;
    }
    if (auto *ack = std::get_if<HelloAck>(&*reply);
        ack && ack->version >= kMinWireVersion &&
        ack->version <= kWireVersion) {
        ack_ = *ack;
        version_ = ack->version;
        return true;
    }
    close();
    return false;
}

bool
SyncClient::send(const Message &msg)
{
    if (!fd_.valid())
        return false;
    std::vector<uint8_t> frame = encodeFrame(msg, version_);
    size_t sent = 0;
    while (sent < frame.size()) {
        ptrdiff_t n = sendSome(
            fd_.get(), std::span<const uint8_t>(frame.data() + sent,
                                                frame.size() - sent));
        if (n < 0) {
            close();
            return false;
        }
        if (n == 0) {
            // Blocking socket briefly write-blocked; wait for space.
            pollfd pfd = {fd_.get(), POLLOUT, 0};
            ::poll(&pfd, 1, 100);
            continue;
        }
        sent += static_cast<size_t>(n);
    }
    return true;
}

std::optional<Message>
SyncClient::receive(double timeout_ms)
{
    auto deadline = std::chrono::steady_clock::now() +
                    std::chrono::duration<double, std::milli>(
                        timeout_ms);
    while (true) {
        if (auto polled = decoder_.poll()) {
            if (std::holds_alternative<WireError>(*polled)) {
                last_error_ = std::get<WireError>(*polled);
                close();
                return std::nullopt;
            }
            return std::move(std::get<Message>(*polled));
        }
        if (!fd_.valid())
            return std::nullopt;
        auto left = std::chrono::duration<double, std::milli>(
                        deadline - std::chrono::steady_clock::now())
                        .count();
        if (left <= 0)
            return std::nullopt;
        pollfd pfd = {fd_.get(), POLLIN, 0};
        int ready = ::poll(&pfd, 1,
                           static_cast<int>(std::min(left, 100.0)) + 1);
        if (ready <= 0)
            continue;
        uint8_t buf[65536];
        ptrdiff_t n = recvSome(fd_.get(), buf);
        if (n < 0) {
            close();
            return std::nullopt;
        }
        if (n > 0)
            decoder_.feed(std::span<const uint8_t>(
                buf, static_cast<size_t>(n)));
    }
}

std::optional<Result>
SyncClient::roundTrip(const Submit &task, double timeout_ms)
{
    // Refuse a kind the negotiated version cannot carry up front
    // rather than hitting the encoder's caller-error panic.
    if (!sched::wireCanCarry(task.kind, version_))
        return std::nullopt;
    if (!send(Message{task}))
        return std::nullopt;
    auto deadline = std::chrono::steady_clock::now() +
                    std::chrono::duration<double, std::milli>(
                        timeout_ms);
    while (std::chrono::steady_clock::now() < deadline) {
        auto left = std::chrono::duration<double, std::milli>(
                        deadline - std::chrono::steady_clock::now())
                        .count();
        auto msg = receive(left);
        if (!msg)
            return std::nullopt;
        if (auto *result = std::get_if<Result>(&*msg);
            result && result->task_id == task.task_id)
            return std::move(*result);
        if (std::holds_alternative<ProtoError>(*msg)) {
            close();
            return std::nullopt;
        }
    }
    return std::nullopt;
}

} // namespace bzk::net
