// Transport unit tests: a frame leaves as one send (one record on a
// SOCK_SEQPACKET socket), a frame many times the socket buffer arrives
// whole, and TCP sockets on both ends run with Nagle off.
#include "server/net.hpp"

#include <gtest/gtest.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "server/protocol.hpp"

namespace mgp::server {
namespace {

std::vector<std::uint8_t> pattern(std::size_t len) {
  std::vector<std::uint8_t> out(len);
  for (std::size_t i = 0; i < len; ++i) out[i] = static_cast<std::uint8_t>(i * 131 + 7);
  return out;
}

TEST(NetTest, WriteFrameSendsHeaderAndPayloadAsOneRecord) {
  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_SEQPACKET, 0, sv), 0);
  Fd a(sv[0]), b(sv[1]);
  for (std::size_t len : {std::size_t{0}, std::size_t{1}, std::size_t{1000}}) {
    const std::vector<std::uint8_t> payload = pattern(len);
    ASSERT_TRUE(write_frame(a.get(), MsgType::kPartitionRequest, payload));
    // A record larger than the buffer would be truncated, not split, so one
    // recv that returns everything proves the frame was one send.
    std::vector<std::uint8_t> buf(kFrameHeaderBytes + len + 64);
    const ssize_t got = ::recv(b.get(), buf.data(), buf.size(), 0);
    ASSERT_EQ(got, static_cast<ssize_t>(kFrameHeaderBytes + len)) << "payload " << len;
    FrameHeader h;
    ASSERT_TRUE(decode_frame_header({buf.data(), kFrameHeaderBytes}, h));
    EXPECT_EQ(h.type, MsgType::kPartitionRequest);
    EXPECT_EQ(h.payload_len, len);
    EXPECT_TRUE(std::equal(payload.begin(), payload.end(), buf.begin() + kFrameHeaderBytes));
  }
}

TEST(NetTest, WriteFrameLargerThanTheSocketBufferArrivesWhole) {
  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  Fd a(sv[0]), b(sv[1]);
  int small = 4096;
  ::setsockopt(a.get(), SOL_SOCKET, SO_SNDBUF, &small, sizeof(small));
  const std::vector<std::uint8_t> payload = pattern(std::size_t{3} << 20);
  FrameHeader h;
  std::vector<std::uint8_t> got;
  ReadFrameResult rc = ReadFrameResult::kError;
  std::thread reader([&] { rc = read_frame(b.get(), h, got, payload.size()); });
  const bool sent = write_frame(a.get(), MsgType::kDeltaRequest, payload);
  reader.join();
  ASSERT_TRUE(sent);
  ASSERT_EQ(rc, ReadFrameResult::kOk);
  EXPECT_EQ(h.type, MsgType::kDeltaRequest);
  EXPECT_EQ(got, payload);
}

int nodelay(int fd) {
  int on = 0;
  socklen_t len = sizeof(on);
  if (::getsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &on, &len) != 0) return -1;
  return on != 0 ? 1 : 0;
}

TEST(NetTest, TcpSocketsRunWithNagleOff) {
  std::string err;
  Fd listener = listen_tcp(0, err);
  ASSERT_TRUE(listener.valid()) << err;
  Fd client = connect_tcp("127.0.0.1", local_port(listener.get()), err);
  ASSERT_TRUE(client.valid()) << err;
  Fd accepted(::accept(listener.get(), nullptr, nullptr));
  ASSERT_TRUE(accepted.valid());
  EXPECT_EQ(nodelay(client.get()), 1);
  EXPECT_EQ(nodelay(accepted.get()), 1);  // the server's end of a connection
}

}  // namespace
}  // namespace mgp::server
