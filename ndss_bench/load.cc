#include "load.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <strings.h>
#include <thread>

namespace ndss_bench {

namespace {

using Clock = std::chrono::steady_clock;

double MsBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

bool SendAll(int fd, const std::string& data) {
  size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n =
        ::send(fd, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    sent += static_cast<size_t>(n);
  }
  return true;
}

}  // namespace

bool HttpConnection::Connect(uint16_t port) {
  Close();
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return false;
  int on = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &on, sizeof(on));
  // A wedged server fails the request instead of hanging the benchmark.
  timeval timeout{30, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return false;
  }
  fd_ = fd;
  buffer_.clear();
  return true;
}

void HttpConnection::Close() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
}

void HttpConnection::Roundtrip(const char* method, const std::string& target,
                               const std::string& body, Reply* reply) {
  *reply = Reply();
  std::string request = std::string(method) + " " + target +
                        " HTTP/1.1\r\nHost: 127.0.0.1\r\n";
  if (!body.empty()) request += "Content-Type: application/json\r\n";
  request += "Content-Length: " + std::to_string(body.size()) + "\r\n\r\n";
  request += body;
  reply->request_bytes = request.size();
  if (fd_ < 0 || !SendAll(fd_, request)) {
    Close();
    return;
  }
  // Read the head, then exactly Content-Length body bytes.
  size_t head_end = std::string::npos;
  size_t body_length = 0;
  char chunk[16384];
  for (;;) {
    if (head_end == std::string::npos) {
      head_end = buffer_.find("\r\n\r\n");
      if (head_end != std::string::npos) {
        const std::string head = buffer_.substr(0, head_end);
        // "HTTP/1.1 200 OK"
        const size_t space = head.find(' ');
        if (space == std::string::npos) break;
        reply->status = std::atoi(head.c_str() + space + 1);
        size_t line = head.find("\r\n");
        while (line != std::string::npos) {
          const size_t next = head.find("\r\n", line + 2);
          const std::string field = head.substr(
              line + 2, next == std::string::npos ? std::string::npos
                                                  : next - line - 2);
          if (field.size() > 15 &&
              ::strncasecmp(field.c_str(), "content-length:", 15) == 0) {
            body_length = std::strtoull(field.c_str() + 15, nullptr, 10);
          }
          line = next;
        }
        head_end += 4;
      }
    }
    if (head_end != std::string::npos &&
        buffer_.size() >= head_end + body_length) {
      reply->body = buffer_.substr(head_end, body_length);
      reply->response_bytes = head_end + body_length;
      buffer_.erase(0, head_end + body_length);
      return;
    }
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    buffer_.append(chunk, static_cast<size_t>(n));
  }
  reply->status = 0;
  Close();
}

Reply Fetch(uint16_t port, const char* method, const std::string& target,
            const std::string& body) {
  HttpConnection connection;
  Reply reply;
  if (connection.Connect(port)) {
    connection.Roundtrip(method, target, body, &reply);
  }
  return reply;
}

Phase RunClosedLoop(uint16_t port, size_t connections, double seconds,
                    const RequestFn& make, const ReplyFn& on_reply,
                    uint64_t min_requests) {
  const Clock::time_point start = Clock::now();
  const Clock::time_point end =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  std::atomic<uint64_t> next{0};
  std::vector<std::vector<Outcome>> per_sender(connections);
  std::vector<std::thread> senders;
  for (size_t s = 0; s < connections; ++s) {
    senders.emplace_back([&, s] {
      HttpConnection connection;
      Clock::time_point free_since = Clock::now();
      for (;;) {
        const uint64_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= min_requests && Clock::now() >= end) break;
        const Request request = make(i);
        if (!connection.connected()) connection.Connect(port);
        Reply reply;
        const Clock::time_point sent = Clock::now();
        connection.Roundtrip("POST", request.target, request.body, &reply);
        const Clock::time_point done = Clock::now();
        Outcome outcome;
        outcome.index = i;
        outcome.status = reply.status;
        outcome.latency_ms = MsBetween(sent, done);
        outcome.lag_ms = MsBetween(free_since, sent);
        outcome.done_ms = MsBetween(start, done);
        outcome.request_bytes = reply.request_bytes;
        outcome.response_bytes = reply.response_bytes;
        outcome.body = std::move(reply.body);
        if (on_reply) on_reply(outcome);
        per_sender[s].push_back(std::move(outcome));
        free_since = Clock::now();
      }
    });
  }
  for (std::thread& sender : senders) sender.join();
  Phase phase;
  for (std::vector<Outcome>& outcomes : per_sender) {
    for (Outcome& outcome : outcomes) {
      phase.outcomes.push_back(std::move(outcome));
    }
  }
  std::sort(phase.outcomes.begin(), phase.outcomes.end(),
            [](const Outcome& a, const Outcome& b) {
              return a.index < b.index;
            });
  return phase;
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t rank = static_cast<size_t>(
      std::ceil(p * static_cast<double>(values.size())));
  return values[rank == 0 ? 0 : rank - 1];
}

}  // namespace ndss_bench
