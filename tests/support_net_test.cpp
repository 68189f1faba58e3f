// Tests for the raw-fd networking helpers (support/net.*): line framing
// across arbitrary read boundaries, partial-final-line surfacing, the line
// cap on a line that never ends, waking a read blocked on a pipe, EINTR/short-write-safe sends on both sockets and
// pipes, and endpoint checks at flag-parse time.
#include "support/net.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <csignal>
#include <cstring>
#include <thread>

#include "support/error.hpp"

extern "C" {
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>
}

namespace tensorlib::support::net {
namespace {

TEST(LineReader, FramesLinesAndSurfacesPartialTail) {
  int fds[2];
  ASSERT_EQ(pipe(fds), 0);
  const char* data = "a\nbb\nccc";
  // sendAll on a pipe also exercises the ENOTSOCK write() fallback.
  ASSERT_TRUE(sendAll(fds[1], data, std::strlen(data)));
  close(fds[1]);

  LineReader reader(fds[0]);
  auto line = reader.next();
  ASSERT_TRUE(line.has_value());
  EXPECT_EQ(line->text, "a");
  EXPECT_TRUE(line->complete);
  line = reader.next();
  ASSERT_TRUE(line.has_value());
  EXPECT_EQ(line->text, "bb");
  EXPECT_TRUE(line->complete);
  // The tail has no '\n': it must come back exactly once, flagged.
  line = reader.next();
  ASSERT_TRUE(line.has_value());
  EXPECT_EQ(line->text, "ccc");
  EXPECT_FALSE(line->complete);
  EXPECT_FALSE(reader.next().has_value());
  close(fds[0]);
}

TEST(LineReader, ReassemblesLinesSplitAcrossWrites) {
  int fds[2];
  ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  std::thread writer([&] {
    const char* chunks[] = {"hel", "lo\nwo", "rld\n"};
    for (const char* chunk : chunks) {
      ASSERT_TRUE(sendAll(fds[1], chunk, std::strlen(chunk)));
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    close(fds[1]);
  });
  LineReader reader(fds[0]);
  auto line = reader.next();
  ASSERT_TRUE(line.has_value());
  EXPECT_EQ(line->text, "hello");
  EXPECT_TRUE(line->complete);
  line = reader.next();
  ASSERT_TRUE(line.has_value());
  EXPECT_EQ(line->text, "world");
  EXPECT_TRUE(line->complete);
  EXPECT_FALSE(reader.next().has_value());
  writer.join();
  close(fds[0]);
}

TEST(LineReader, EmptyLinesAreCompleteLines) {
  int fds[2];
  ASSERT_EQ(pipe(fds), 0);
  const char* data = "\n\nx\n";
  ASSERT_TRUE(sendAll(fds[1], data, std::strlen(data)));
  close(fds[1]);
  LineReader reader(fds[0]);
  for (const char* expected : {"", "", "x"}) {
    auto line = reader.next();
    ASSERT_TRUE(line.has_value());
    EXPECT_EQ(line->text, expected);
    EXPECT_TRUE(line->complete);
  }
  EXPECT_FALSE(reader.next().has_value());
  close(fds[0]);
}

TEST(LineReader, ClosedWakePipeEndsABlockedRead) {
  int data[2], wake[2];
  ASSERT_EQ(pipe(data), 0);
  ASSERT_EQ(pipe(wake), 0);
  // data[1] stays open, so without the wake pipe the second read blocks.
  ASSERT_TRUE(sendAll(data[1], "a\nb", 3));
  LineReader reader(data[0], wake[0]);
  auto line = reader.next();
  ASSERT_TRUE(line.has_value());
  EXPECT_EQ(line->text, "a");
  close(wake[1]);
  // Woken: the stream reads as EOF, so the buffered tail is a partial line.
  line = reader.next();
  ASSERT_TRUE(line.has_value());
  EXPECT_EQ(line->text, "b");
  EXPECT_FALSE(line->complete);
  EXPECT_FALSE(reader.next().has_value());
  for (const int fd : {data[0], data[1], wake[0]}) close(fd);
}

TEST(LineReader, CapsLinesWhileTheyAreStillArriving) {
  int fds[2];
  ASSERT_EQ(pipe(fds), 0);
  // fds[1] stays open: the over-long tail must be reported without waiting
  // for a '\n' that never comes.
  const std::string atCap(8, 'a'), overCap(9, 'b');
  const std::string data = atCap + "\n" + overCap;
  ASSERT_TRUE(sendAll(fds[1], data.data(), data.size()));
  LineReader reader(fds[0], -1, 8);
  auto line = reader.next();
  ASSERT_TRUE(line.has_value());
  EXPECT_EQ(line->text, atCap);
  EXPECT_TRUE(line->complete);
  EXPECT_FALSE(line->tooLong);
  line = reader.next();
  ASSERT_TRUE(line.has_value());
  EXPECT_TRUE(line->tooLong);
  EXPECT_FALSE(line->complete);
  EXPECT_FALSE(reader.next().has_value());
  close(fds[0]);
  close(fds[1]);
}

TEST(SendAll, ReportsClosedPeerInsteadOfKillingTheProcess) {
  std::signal(SIGPIPE, SIG_IGN);
  int fds[2];
  ASSERT_EQ(pipe(fds), 0);
  close(fds[0]);
  EXPECT_FALSE(sendAll(fds[1], "x", 1));
  close(fds[1]);

  ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  close(fds[0]);
  EXPECT_FALSE(sendAll(fds[1], "x", 1));
  close(fds[1]);
}

TEST(Listeners, EphemeralTcpPortIsReportedBack) {
  int port = -1;
  const int fd = listenTcp("127.0.0.1", 0, 4, &port);
  ASSERT_GE(fd, 0);
  EXPECT_GT(port, 0);
  const int client = connectTcp("127.0.0.1", port);
  EXPECT_GE(client, 0);
  if (client >= 0) close(client);
  close(fd);
}

TEST(Endpoints, MalformedOnesFailAtParseTime) {
  EXPECT_EQ(checkEndpoint("--bind", "127.0.0.1", EndpointKind::TcpHost),
            "127.0.0.1");
  EXPECT_THROW(checkEndpoint("--bind", "notanip", EndpointKind::TcpHost),
               Error);
  EXPECT_THROW(checkEndpoint("--connect", "localhost", EndpointKind::TcpHost),
               Error);
  // sun_path must also hold the terminating NUL.
  const std::string longest(sizeof(sockaddr_un{}.sun_path) - 1, 'p');
  EXPECT_EQ(checkEndpoint("--unix-socket", longest, EndpointKind::UnixPath),
            longest);
  EXPECT_THROW(
      checkEndpoint("--unix-socket", longest + "p", EndpointKind::UnixPath),
      Error);
  EXPECT_THROW(checkEndpoint("--unix-socket", "", EndpointKind::UnixPath),
               Error);
}

}  // namespace
}  // namespace tensorlib::support::net
