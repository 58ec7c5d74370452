// Minimal dependency-free HTTP/1.1 telemetry endpoint.
//
// One blocking accept loop on its own thread, serving three GET routes
// from a TelemetrySource:
//   /metrics        Prometheus text exposition (prom_export.hpp)
//   /snapshot.json  structured cumulative + interval view (telemetry.hpp)
//   /healthz        "ok" liveness probe
// Anything else is 404; non-GET methods are 405. Requests are handled
// serially — this is an operator scrape endpoint (Prometheus polls every
// few seconds), not a web server, and a serial loop keeps it at ~150
// lines of POSIX sockets with zero dependencies.
//
// Binding: 127.0.0.1 by default (telemetry is not authenticated; opt into
// other interfaces explicitly). Port 0 binds an ephemeral port — read the
// real one back with port(), which tests and `--telemetry-port 0` use.
//
// http_get() is the matching tiny client, so tests and `ft2 top
// --connect` need no curl dependency.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>

namespace ft2 {

class TelemetrySource;

class TelemetryEndpoint {
 public:
  struct Options {
    std::string bind_address = "127.0.0.1";
    int port = 0;  ///< 0 = ephemeral; see port()
  };

  explicit TelemetryEndpoint(const TelemetrySource* source)
      : TelemetryEndpoint(source, Options()) {}
  TelemetryEndpoint(const TelemetrySource* source, Options options);
  ~TelemetryEndpoint();
  TelemetryEndpoint(const TelemetryEndpoint&) = delete;
  TelemetryEndpoint& operator=(const TelemetryEndpoint&) = delete;

  /// Binds, listens and launches the serving thread. Throws ft2::Error
  /// when the port cannot be bound. Idempotent once started.
  void start();

  /// Shuts the listener down and joins the thread (idempotent; destructor
  /// calls it). In-flight responses finish; queued connections are reset.
  void stop();

  bool running() const { return running_; }

  /// The bound TCP port (valid after start(); the interesting case is the
  /// ephemeral port chosen for Options::port == 0).
  int port() const { return bound_port_; }

  /// "http://<bind>:<port>" for operator-facing log lines.
  std::string url() const;

 private:
  void serve_loop();
  void handle_connection(int client_fd);

  const TelemetrySource* source_;
  Options options_;
  int listen_fd_ = -1;
  int bound_port_ = -1;
  /// Read by the serving thread while stop() clears it.
  std::atomic<bool> running_{false};
  std::thread thread_;
};

/// Blocking one-shot HTTP GET against 127.0.0.1-style endpoints; the tiny
/// client half of the telemetry pair (no curl). Returns status 0 with a
/// diagnostic body on connect/read failure or timeout.
struct HttpResponse {
  int status = 0;
  std::string body;
};
HttpResponse http_get(const std::string& host, int port,
                      const std::string& path, int timeout_ms = 5000);

}  // namespace ft2
