#include "open_loop.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <deque>
#include <chrono>
#include <fcntl.h>
#include <functional>
#include <string_view>
#include <unordered_map>

#include "service/recommendation_io.h"
#include "service/tuning_io.h"

namespace perfbench {

using ipool::net::EncodeFrame;
using ipool::net::Frame;
using ipool::net::FrameDecoder;
using ipool::net::FrameType;
using ipool::net::Method;
using ipool::net::WireStatus;

double SteadyNow() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

uint64_t PayloadHash(const std::string& bytes) {
  return std::hash<std::string_view>{}(std::string_view(bytes));
}

namespace {

struct Conn {
  int fd = -1;
  std::string out;
  size_t out_offset = 0;
  size_t inflight = 0;
  FrameDecoder decoder;
  bool broken = false;
};

int Connect(uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL, 0) | O_NONBLOCK);
  return fd;
}

}  // namespace

OpenLoopResult RunOpenLoop(const OpenLoopConfig& config,
                           const std::vector<Request>& requests) {
  OpenLoopResult result;
  result.outcomes.resize(requests.size());
  std::vector<Conn> conns(config.connections);
  for (Conn& conn : conns) {
    conn.fd = Connect(config.port);
    if (conn.fd < 0) {
      conn.broken = true;
      ++result.transport_errors;
    }
  }
  // Which connection carried each request, to release its window slot.
  std::vector<uint8_t> conn_of(requests.size(), 0);
  std::unordered_map<uint64_t, bool>& parsed_cache = *config.parsed;
  uint32_t groups = 0;
  for (const Request& request : requests) {
    groups = std::max(groups, request.order_group);
  }
  std::vector<char> group_busy(groups + 1, 0);
  std::vector<std::deque<size_t>> deferred(groups + 1);

  const size_t n = requests.size();
  const double last_due = n > 0 ? requests.back().due : 0.0;
  size_t next = 0;
  size_t answered = 0;
  size_t rr = 0;
  std::vector<pollfd> fds(conns.size());
  char buffer[1 << 16];
  result.start = SteadyNow();

  while (answered < n) {
    double now = SteadyNow() - result.start;
    if (next == n && now > last_due + config.drain_seconds) break;

    // Send everything due, round-robin over connections with window room;
    // a request whose order group is busy waits in that group's queue.
    auto send = [&](size_t i) {
      size_t chosen = conns.size();
      for (size_t k = 0; k < conns.size(); ++k) {
        const size_t c = (rr + k) % conns.size();
        if (!conns[c].broken && conns[c].inflight < config.window) {
          chosen = c;
          break;
        }
      }
      if (chosen == conns.size()) return false;  // every window full
      rr = chosen + 1;
      Conn& conn = conns[chosen];
      Frame frame;
      frame.type = FrameType::kRequest;
      frame.method = requests[i].method;
      frame.request_id = static_cast<uint32_t>(i + 1);
      frame.payload = requests[i].payload;
      conn.out += EncodeFrame(frame);
      ++conn.inflight;
      conn_of[i] = static_cast<uint8_t>(chosen);
      result.outcomes[i].sent = result.start + now;
      if (requests[i].order_group != 0) {
        group_busy[requests[i].order_group] = 1;
      }
      return true;
    };
    for (size_t g = 1; g < deferred.size(); ++g) {
      if (!group_busy[g] && !deferred[g].empty() && send(deferred[g].front())) {
        deferred[g].pop_front();
      }
    }
    while (next < n && requests[next].due <= now) {
      const uint32_t group = requests[next].order_group;
      if (group != 0 && (group_busy[group] || !deferred[group].empty())) {
        deferred[group].push_back(next++);
        continue;
      }
      if (!send(next)) break;  // falls late until a window slot frees
      ++next;
    }

    for (Conn& conn : conns) {
      if (conn.broken || conn.out_offset == conn.out.size()) continue;
      const ssize_t w =
          ::send(conn.fd, conn.out.data() + conn.out_offset,
                 conn.out.size() - conn.out_offset, MSG_NOSIGNAL);
      if (w > 0) {
        conn.out_offset += static_cast<size_t>(w);
      } else if (w < 0 && errno != EAGAIN && errno != EWOULDBLOCK) {
        conn.broken = true;
        ++result.transport_errors;
        continue;
      }
      if (conn.out_offset == conn.out.size()) {
        conn.out.clear();
        conn.out_offset = 0;
      }
    }

    // Busy-poll: a sleeping thread can wake milliseconds late on a
    // virtualized host, which would show up as generator lateness.
    for (size_t c = 0; c < conns.size(); ++c) {
      fds[c].fd = conns[c].broken ? -1 : conns[c].fd;
      fds[c].events = static_cast<short>(
          POLLIN | (conns[c].out_offset < conns[c].out.size() ? POLLOUT : 0));
      fds[c].revents = 0;
    }
    if (::poll(fds.data(), fds.size(), 0) <= 0) continue;

    for (size_t c = 0; c < conns.size(); ++c) {
      if (fds[c].fd < 0 || (fds[c].revents & (POLLIN | POLLERR | POLLHUP)) == 0) {
        continue;
      }
      Conn& conn = conns[c];
      for (;;) {
        const ssize_t r = ::recv(conn.fd, buffer, sizeof(buffer), 0);
        if (r > 0) {
          if (!conn.decoder.Feed(buffer, static_cast<size_t>(r)).ok()) {
            ++result.protocol_errors;
            conn.broken = true;
            break;
          }
          continue;
        }
        if (r == 0 || (errno != EAGAIN && errno != EWOULDBLOCK)) {
          conn.broken = true;
          ++result.transport_errors;
        }
        break;
      }
      const double recv_time = SteadyNow();
      while (conn.decoder.HasFrame()) {
        Frame frame = conn.decoder.Next();
        const size_t id = frame.request_id;
        if (frame.type != FrameType::kResponse || id == 0 || id > next ||
            result.outcomes[id - 1].recv >= 0.0 || conn_of[id - 1] != c) {
          ++result.protocol_errors;
          continue;
        }
        Outcome& out = result.outcomes[id - 1];
        out.recv = recv_time;
        out.status = frame.status;
        --conn.inflight;
        ++answered;
        group_busy[requests[id - 1].order_group] = 0;
        if (frame.status != WireStatus::kOk ||
            requests[id - 1].method != Method::kGetRecommendation) {
          continue;
        }
        out.payload_hash = PayloadHash(frame.payload);
        auto [it, fresh] = parsed_cache.emplace(out.payload_hash, false);
        if (fresh) {
          it->second = requests[id - 1].tuning_doc
                           ? ipool::ParseTuning(frame.payload).ok()
                           : ipool::ParseRecommendation(frame.payload).ok();
        }
        out.parsed = it->second;
      }
    }
    bool all_broken = true;
    for (const Conn& conn : conns) all_broken = all_broken && conn.broken;
    if (all_broken) break;
  }
  for (Conn& conn : conns) {
    if (conn.fd >= 0) ::close(conn.fd);
  }
  return result;
}

}  // namespace perfbench
