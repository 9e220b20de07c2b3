#include "server/net.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace mgp::server {
namespace {

std::string errno_message(const char* what) {
  return std::string(what) + ": " + std::strerror(errno);
}

/// Frames go out whole (write_frame sends each with one sendmsg), so Nagle
/// only delays them: with it on, a request waited for the peer's delayed ACK
/// (~40 ms on loopback) whenever an earlier segment was still unacknowledged.
void set_nodelay(int fd) {
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

}  // namespace

void Fd::reset() {
  if (fd_ >= 0) {
    // POSIX leaves the descriptor state unspecified on EINTR from close;
    // retrying risks closing a recycled fd, so close once and move on.
    ::close(fd_);
    fd_ = -1;
  }
}

Fd listen_unix(const std::string& path, std::string& err) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    err = "unix socket path too long: " + path;
    return Fd();
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);

  Fd fd(::socket(AF_UNIX, SOCK_STREAM, 0));
  if (!fd.valid()) {
    err = errno_message("socket(AF_UNIX)");
    return Fd();
  }
  ::unlink(path.c_str());  // a stale socket file would make bind fail
  if (::bind(fd.get(), reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    err = errno_message("bind");
    return Fd();
  }
  if (::listen(fd.get(), SOMAXCONN) != 0) {
    err = errno_message("listen");
    return Fd();
  }
  return fd;
}

Fd listen_tcp(std::uint16_t port, std::string& err) {
  Fd fd(::socket(AF_INET, SOCK_STREAM, 0));
  if (!fd.valid()) {
    err = errno_message("socket(AF_INET)");
    return Fd();
  }
  int one = 1;
  ::setsockopt(fd.get(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  set_nodelay(fd.get());  // accepted sockets inherit it
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(fd.get(), reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    err = errno_message("bind");
    return Fd();
  }
  if (::listen(fd.get(), SOMAXCONN) != 0) {
    err = errno_message("listen");
    return Fd();
  }
  return fd;
}

std::uint16_t local_port(int fd) {
  sockaddr_in addr{};
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) return 0;
  return ntohs(addr.sin_port);
}

Fd connect_unix(const std::string& path, std::string& err) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    err = "unix socket path too long: " + path;
    return Fd();
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  Fd fd(::socket(AF_UNIX, SOCK_STREAM, 0));
  if (!fd.valid()) {
    err = errno_message("socket(AF_UNIX)");
    return Fd();
  }
  int rc;
  do {
    rc = ::connect(fd.get(), reinterpret_cast<const sockaddr*>(&addr), sizeof(addr));
  } while (rc != 0 && errno == EINTR);
  if (rc != 0) {
    err = errno_message("connect");
    return Fd();
  }
  return fd;
}

Fd connect_tcp(const std::string& host, std::uint16_t port, std::string& err) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    err = "not an IPv4 address: " + host;
    return Fd();
  }
  Fd fd(::socket(AF_INET, SOCK_STREAM, 0));
  if (!fd.valid()) {
    err = errno_message("socket(AF_INET)");
    return Fd();
  }
  int rc;
  do {
    rc = ::connect(fd.get(), reinterpret_cast<const sockaddr*>(&addr), sizeof(addr));
  } while (rc != 0 && errno == EINTR);
  if (rc != 0) {
    err = errno_message("connect");
    return Fd();
  }
  set_nodelay(fd.get());
  return fd;
}

bool send_all(int fd, const void* data, std::size_t len) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  while (len > 0) {
    const ssize_t sent = ::send(fd, p, len, MSG_NOSIGNAL);
    if (sent < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    p += sent;
    len -= static_cast<std::size_t>(sent);
  }
  return true;
}

bool recv_all(int fd, void* data, std::size_t len) {
  auto* p = static_cast<std::uint8_t*>(data);
  while (len > 0) {
    const ssize_t got = ::recv(fd, p, len, 0);
    if (got < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (got == 0) return false;  // EOF mid-buffer
    p += got;
    len -= static_cast<std::size_t>(got);
  }
  return true;
}

ReadFrameResult read_frame(int fd, FrameHeader& header,
                           std::vector<std::uint8_t>& payload,
                           std::size_t max_payload) {
  std::uint8_t head[kFrameHeaderBytes];
  // Distinguish a clean close (EOF before any header byte) from a torn one.
  ssize_t first;
  do {
    first = ::recv(fd, head, sizeof(head), 0);
  } while (first < 0 && errno == EINTR);
  if (first == 0) return ReadFrameResult::kEof;
  if (first < 0) return ReadFrameResult::kError;
  if (static_cast<std::size_t>(first) < sizeof(head) &&
      !recv_all(fd, head + first, sizeof(head) - static_cast<std::size_t>(first))) {
    return ReadFrameResult::kError;
  }
  if (!decode_frame_header(head, header)) return ReadFrameResult::kBadFrame;
  if (header.payload_len > max_payload) return ReadFrameResult::kBadFrame;
  payload.resize(header.payload_len);
  if (header.payload_len > 0 && !recv_all(fd, payload.data(), payload.size())) {
    return ReadFrameResult::kError;
  }
  return ReadFrameResult::kOk;
}

bool write_frame(int fd, MsgType type, std::span<const std::uint8_t> payload) {
  FrameHeader h;
  h.type = type;
  h.payload_len = static_cast<std::uint32_t>(payload.size());
  std::uint8_t head[kFrameHeaderBytes];
  encode_frame_header(h, head);
  // Header and payload leave in one sendmsg, so a frame is one segment (or
  // one record on a SOCK_SEQPACKET socket); a partial send resumes where it
  // stopped.
  iovec iov[2] = {{head, sizeof(head)},
                  {const_cast<std::uint8_t*>(payload.data()), payload.size()}};
  msghdr msg{};
  msg.msg_iov = iov;
  msg.msg_iovlen = payload.empty() ? 1 : 2;
  while (msg.msg_iovlen > 0) {
    ssize_t sent = ::sendmsg(fd, &msg, MSG_NOSIGNAL);
    if (sent < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    while (msg.msg_iovlen > 0 &&
           static_cast<std::size_t>(sent) >= msg.msg_iov->iov_len) {
      sent -= static_cast<ssize_t>(msg.msg_iov->iov_len);
      ++msg.msg_iov;
      --msg.msg_iovlen;
    }
    if (msg.msg_iovlen > 0) {
      msg.msg_iov->iov_base = static_cast<std::uint8_t*>(msg.msg_iov->iov_base) + sent;
      msg.msg_iov->iov_len -= static_cast<std::size_t>(sent);
    }
  }
  return true;
}

}  // namespace mgp::server
