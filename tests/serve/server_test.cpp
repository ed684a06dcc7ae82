// The socket daemon end to end: real AF_UNIX connections, concurrent
// clients, request ordering per connection, and shutdown semantics. The
// ServeServer suite runs under TSan in CI (see the -R filter in ci.yml).
#include "serve/server.h"

#include <gtest/gtest.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "common/error.h"
#include "common/json_parse.h"
#include "serve/client.h"

namespace shiraz::serve {
namespace {

/// Unique socket path per test, cleaned up by the server's destructor.
std::string temp_socket(const std::string& tag) {
  static std::atomic<int> counter{0};
  return (std::filesystem::temp_directory_path() /
          ("shiraz_srv_" + tag + "_" + std::to_string(::getpid()) + "_" +
           std::to_string(counter++) + ".sock"))
      .string();
}

constexpr const char* kSolve =
    R"({"op":"solve_k","delta_lw_s":18,"delta_hw_s":1800})";

TEST(ServeServer, AnswersOverTheSocketByteIdenticalToTheService) {
  ServerConfig cfg;
  cfg.socket_path = temp_socket("basic");
  cfg.threads = 2;
  Server server(cfg);
  server.serve_async();
  ASSERT_TRUE(wait_for_server(cfg.socket_path));

  Client client(cfg.socket_path);
  Service direct;
  for (const char* line :
       {kSolve, R"({"op":"oci","delta_s":60})",
        R"({"op":"checkpoint_now","delta_s":60,"since_ckpt_s":0})",
        R"({"op":"bogus"})"}) {
    EXPECT_EQ(client.request(line), direct.handle(line)) << line;
  }
  server.request_stop();
  server.wait();
}

TEST(ServeServer, ConcurrentClientsEachGetTheirOwnOrderedResponses) {
  ServerConfig cfg;
  cfg.socket_path = temp_socket("concurrent");
  cfg.threads = 4;
  Server server(cfg);
  server.serve_async();
  ASSERT_TRUE(wait_for_server(cfg.socket_path));

  constexpr std::size_t kClients = 4;
  constexpr std::size_t kRequests = 25;
  std::vector<std::vector<std::string>> responses(kClients);
  {
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < kClients; ++c) {
      threads.emplace_back([&, c] {
        Client client(cfg.socket_path);
        for (std::size_t i = 0; i < kRequests; ++i) {
          // Distinct id per request: the echoed id proves responses arrive
          // in request order on this connection, never cross-wired.
          const std::string line =
              R"({"op":"solve_k","id":)" + std::to_string(c * 1000 + i) +
              R"(,"delta_lw_s":18,"delta_hw_s":1800})";
          responses[c].push_back(client.request(line));
        }
      });
    }
    for (std::thread& t : threads) t.join();
  }
  for (std::size_t c = 0; c < kClients; ++c) {
    ASSERT_EQ(responses[c].size(), kRequests);
    for (std::size_t i = 0; i < kRequests; ++i) {
      const JsonValue doc = parse_json(responses[c][i]);
      EXPECT_TRUE(doc.at("ok").boolean);
      EXPECT_EQ(doc.at("id").number, static_cast<double>(c * 1000 + i));
    }
  }
  EXPECT_EQ(server.service().counters().solve_k, kClients * kRequests);
  server.request_stop();
  server.wait();
}

TEST(ServeServer, OverlongRequestLineIsRejectedAndTheConnectionClosed) {
  ServerConfig cfg;
  cfg.socket_path = temp_socket("overlong");
  cfg.threads = 1;  // the worker must come back for the next client
  Server server(cfg);
  server.serve_async();
  ASSERT_TRUE(wait_for_server(cfg.socket_path));

  // A raw client that never sends a newline.
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, cfg.socket_path.c_str(), cfg.socket_path.size() + 1);
  ASSERT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)),
            0);
  timeval timeout{10, 0};  // a regression must fail the test, not hang it
  ASSERT_EQ(::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout)),
            0);
  const std::string junk(Server::kMaxRequestLine + 1, 'x');
  std::size_t sent = 0;
  while (sent < junk.size()) {
    const ssize_t n =
        ::send(fd, junk.data() + sent, junk.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) break;  // the server may hang up before taking every byte
    sent += static_cast<std::size_t>(n);
  }

  // Exactly one error line comes back, then end-of-stream.
  std::string reply;
  char chunk[256];
  for (;;) {
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n < 0) {
      // A reset after the reply also ends the stream; a timeout does not.
      ASSERT_EQ(errno, ECONNRESET) << "no end-of-stream within the timeout";
      break;
    }
    if (n == 0) break;
    reply.append(chunk, static_cast<std::size_t>(n));
  }
  ::close(fd);
  ASSERT_FALSE(reply.empty());
  EXPECT_EQ(reply.find('\n'), reply.size() - 1) << reply;
  const JsonValue doc = parse_json(reply.substr(0, reply.size() - 1));
  EXPECT_FALSE(doc.at("ok").boolean);
  EXPECT_NE(doc.at("error").string.find("request line exceeds"),
            std::string::npos);

  // The single worker is free again for well-behaved clients.
  Client client(cfg.socket_path);
  EXPECT_NE(client.request(kSolve).find("\"ok\":true"), std::string::npos);
  server.request_stop();
  server.wait();
}

TEST(ServeServer, ShutdownRequestStopsTheDaemon) {
  ServerConfig cfg;
  cfg.socket_path = temp_socket("shutdown");
  Server server(cfg);
  server.serve_async();
  ASSERT_TRUE(wait_for_server(cfg.socket_path));

  Client client(cfg.socket_path);
  const JsonValue doc = parse_json(client.request(R"({"op":"shutdown"})"));
  EXPECT_TRUE(doc.at("ok").boolean);
  server.wait();  // returns because the shutdown op stopped the accept loop
  EXPECT_FALSE(wait_for_server(cfg.socket_path, /*timeout=*/0.05));
}

TEST(ServeServer, SocketFileIsRemovedOnDestruction) {
  const std::string path = temp_socket("cleanup");
  {
    Server server(ServerConfig{path, 1, {}});
    server.serve_async();
    ASSERT_TRUE(wait_for_server(path));
    server.request_stop();
  }
  EXPECT_FALSE(std::filesystem::exists(path));
}

TEST(ServeServer, UnbindableSocketThrowsIoError) {
  ServerConfig cfg;
  cfg.socket_path = "/nonexistent-dir/shiraz.sock";
  EXPECT_THROW(Server{cfg}, IoError);

  ServerConfig too_long;
  too_long.socket_path = std::string(200, 'x');
  EXPECT_THROW(Server{too_long}, IoError);
}

TEST(ServeServer, StaleSocketFileIsReplaced) {
  const std::string path = temp_socket("stale");
  {
    Server first(ServerConfig{path, 1, {}});
    first.serve_async();
    ASSERT_TRUE(wait_for_server(path));
    first.request_stop();
    first.wait();
  }
  // Simulate a crash leaving the file behind, then rebind over it.
  { FILE* f = std::fopen(path.c_str(), "w"); if (f) std::fclose(f); }
  Server second(ServerConfig{path, 1, {}});
  second.serve_async();
  ASSERT_TRUE(wait_for_server(path));
  Client client(path);
  EXPECT_NE(client.request(kSolve).find("\"ok\":true"), std::string::npos);
  second.request_stop();
  second.wait();
}

}  // namespace
}  // namespace shiraz::serve
