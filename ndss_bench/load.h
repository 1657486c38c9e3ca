// The benchmark's own load generator: a blocking HTTP/1.1 keep-alive client
// and a closed loop over a fixed number of connections. It does not use
// net::HttpClient, so a change under src/net cannot speed up the client side
// of a measurement.

#ifndef NDSS_BENCH_LOAD_H_
#define NDSS_BENCH_LOAD_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace ndss_bench {

/// One reply as read off the wire. `status` 0 is a transport error.
struct Reply {
  int status = 0;
  std::string body;
  uint64_t request_bytes = 0;
  uint64_t response_bytes = 0;
};

/// One blocking keep-alive connection to 127.0.0.1.
class HttpConnection {
 public:
  HttpConnection() = default;
  ~HttpConnection() { Close(); }
  HttpConnection(const HttpConnection&) = delete;
  HttpConnection& operator=(const HttpConnection&) = delete;

  bool Connect(uint16_t port);
  bool connected() const { return fd_ >= 0; }
  void Close();

  /// Sends one request and reads its reply. On a transport error the
  /// connection is closed and `reply->status` is 0.
  void Roundtrip(const char* method, const std::string& target,
                 const std::string& body, Reply* reply);

 private:
  int fd_ = -1;
  std::string buffer_;
};

/// Sends one request on a fresh connection (admin endpoints between load
/// phases; the server's worker count caps concurrent connections).
Reply Fetch(uint16_t port, const char* method, const std::string& target,
            const std::string& body = "");

struct Request {
  std::string target;
  std::string body;
};

/// What happened to request `index` of a phase.
struct Outcome {
  uint64_t index = 0;
  int status = 0;
  /// From the send to the whole reply.
  double latency_ms = 0;
  /// How long the client took to send it after the previous reply on its
  /// connection.
  double lag_ms = 0;
  /// When the reply arrived, from the start of the phase.
  double done_ms = 0;
  uint64_t request_bytes = 0;
  uint64_t response_bytes = 0;
  std::string body;
};

struct Phase {
  std::vector<Outcome> outcomes;  ///< sorted by index
};

/// Builds request `index`; called concurrently from sender threads.
using RequestFn = std::function<Request(uint64_t index)>;
/// Observes each outcome on its sender thread, before that sender's next
/// request (e.g. to publish acknowledged writes).
using ReplyFn = std::function<void(const Outcome&)>;

/// Closed loop: each of `connections` senders sends its next request as
/// soon as its previous reply arrives, until `seconds` elapse and at least
/// `min_requests` requests have been sent.
Phase RunClosedLoop(uint16_t port, size_t connections, double seconds,
                    const RequestFn& make, const ReplyFn& on_reply = nullptr,
                    uint64_t min_requests = 0);

/// Nearest-rank percentile of `values` (0 < p < 1); 0 when empty.
double Percentile(std::vector<double> values, double p);

}  // namespace ndss_bench

#endif  // NDSS_BENCH_LOAD_H_
