//===- net/SocketTransport.cpp --------------------------------*- C++ -*-===//
//
// Part of the CompilerGym-C++ reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "net/SocketTransport.h"

#include "telemetry/MetricsRegistry.h"
#include "util/Logging.h"
#include "util/Timer.h"

#include <algorithm>
#include <thread>

using namespace compiler_gym;
using namespace compiler_gym::net;

namespace {

using telemetry::Counter;
using telemetry::MetricsRegistry;

Counter &connectsTotal() {
  static Counter &C = MetricsRegistry::global().counter(
      "cg_net_connects_total", {},
      "Socket connections established by client transports");
  return C;
}

Counter &connectFailuresTotal() {
  static Counter &C = MetricsRegistry::global().counter(
      "cg_net_connect_failures_total", {},
      "Failed socket dial attempts by client transports");
  return C;
}

Counter &netBytes(bool Sent) {
  static Counter &S = MetricsRegistry::global().counter(
      "cg_net_bytes_total", {{"direction", "sent"}},
      "Framed bytes over socket transports (headers included)");
  static Counter &R = MetricsRegistry::global().counter(
      "cg_net_bytes_total", {{"direction", "received"}},
      "Framed bytes over socket transports (headers included)");
  return Sent ? S : R;
}

Counter &netFrames(bool Sent) {
  static Counter &S = MetricsRegistry::global().counter(
      "cg_net_frames_total", {{"direction", "sent"}},
      "Frames over socket transports");
  static Counter &R = MetricsRegistry::global().counter(
      "cg_net_frames_total", {{"direction", "received"}},
      "Frames over socket transports");
  return Sent ? S : R;
}

} // namespace

namespace compiler_gym {
namespace net {

/// Shared with NetServer.cpp: framing damage counter, labeled by kind.
Counter &frameErrorsTotal(FrameDecoder::ErrorKind Kind) {
  static MetricsRegistry &M = MetricsRegistry::global();
  static const char *Help =
      "Framing errors that forced a connection drop, by kind";
  static Counter &Magic = M.counter("cg_net_frame_errors_total",
                                    {{"kind", "bad_magic"}}, Help);
  static Counter &Version = M.counter("cg_net_frame_errors_total",
                                      {{"kind", "bad_version"}}, Help);
  static Counter &Oversized = M.counter("cg_net_frame_errors_total",
                                        {{"kind", "oversized"}}, Help);
  static Counter &Crc = M.counter("cg_net_frame_errors_total",
                                  {{"kind", "bad_crc"}}, Help);
  static Counter &None = M.counter("cg_net_frame_errors_total",
                                   {{"kind", "none"}}, Help);
  switch (Kind) {
  case FrameDecoder::ErrorKind::BadMagic:
    return Magic;
  case FrameDecoder::ErrorKind::BadVersion:
    return Version;
  case FrameDecoder::ErrorKind::Oversized:
    return Oversized;
  case FrameDecoder::ErrorKind::BadCrc:
    return Crc;
  case FrameDecoder::ErrorKind::None:
    return None;
  }
  return None;
}

} // namespace net
} // namespace compiler_gym

SocketTransport::SocketTransport(NetAddress Addr, SocketTransportOptions Opts)
    : Addr(std::move(Addr)), Opts(Opts), Jitter(Opts.JitterSeed) {}

StatusOr<std::shared_ptr<SocketTransport>>
SocketTransport::dial(const std::string &Spec, SocketTransportOptions Opts) {
  CG_ASSIGN_OR_RETURN(NetAddress Addr, NetAddress::parse(Spec));
  return std::make_shared<SocketTransport>(std::move(Addr), Opts);
}

Status SocketTransport::ensureConnected(int DeadlineMs) {
  if (Conn.valid())
    return Status::ok();
  Stopwatch Watch;
  for (;;) {
    if (FailedDials > 0) {
      // min(cap, base * 2^(fails-1)) with ±50% jitter, clipped to the
      // caller's remaining budget.
      int64_t Delay = Opts.ReconnectBackoffMs > 0 ? Opts.ReconnectBackoffMs
                                                  : 1;
      for (int I = 1; I < FailedDials && Delay < Opts.ReconnectBackoffMaxMs;
           ++I)
        Delay *= 2;
      if (Delay > Opts.ReconnectBackoffMaxMs)
        Delay = Opts.ReconnectBackoffMaxMs;
      Delay = Delay / 2 + static_cast<int64_t>(Jitter.bounded(
                              static_cast<uint64_t>(Delay) + 1));
      int64_t Remaining = DeadlineMs - static_cast<int64_t>(Watch.elapsedMs());
      if (Delay >= Remaining)
        return deadlineExceeded("no connection to " + Addr.str() +
                                " within " + std::to_string(DeadlineMs) +
                                "ms");
      std::this_thread::sleep_for(std::chrono::milliseconds(Delay));
    }
    int Remaining = DeadlineMs - static_cast<int>(Watch.elapsedMs());
    if (Remaining <= 0)
      return deadlineExceeded("no connection to " + Addr.str() + " within " +
                              std::to_string(DeadlineMs) + "ms");
    StatusOr<Socket> Dialed =
        Socket::connect(Addr, std::min(Remaining, Opts.ConnectTimeoutMs));
    if (Dialed.isOk()) {
      Conn = std::move(*Dialed);
      connectsTotal().inc();
      FailedDials = 0;
      return Status::ok();
    }
    ++FailedDials;
    connectFailuresTotal().inc();
    CG_LOG_INFO_FOR("net", FailedDials)
        << "dial " << Addr.str() << " failed (attempt " << FailedDials
        << "): " << Dialed.status().message();
  }
}

StatusOr<std::string> SocketTransport::exchange(
    const std::string &RequestBytes, int TimeoutMs) {
  Stopwatch Watch;
  std::string Frame = encodeFrame(RequestBytes);
  Status Sent = Conn.writeAll(Frame, TimeoutMs);
  if (!Sent.isOk()) {
    Conn.close();
    return Sent;
  }
  netBytes(true).inc(Frame.size());
  netFrames(true).inc();

  FrameDecoder Decoder(Opts.MaxFrameBytes);
  std::string Payload;
  for (;;) {
    switch (Decoder.next(Payload)) {
    case FrameDecoder::Result::Frame:
      netFrames(false).inc();
      return std::move(Payload);
    case FrameDecoder::Result::Error:
      frameErrorsTotal(Decoder.errorKind()).inc();
      Conn.close();
      return unavailable("framing error from " + Addr.str() + ": " +
                         Decoder.errorMessage());
    case FrameDecoder::Result::NeedMore:
      break;
    }
    int Remaining = TimeoutMs - static_cast<int>(Watch.elapsedMs());
    if (Remaining <= 0) {
      // The reply may still arrive later; with no way to correlate it to
      // a request, the stream is unusable — drop it.
      Conn.close();
      return deadlineExceeded("no reply from " + Addr.str() + " within " +
                              std::to_string(TimeoutMs) + "ms");
    }
    StatusOr<std::string> Chunk = Conn.readSome(64 * 1024, Remaining);
    if (!Chunk.isOk()) {
      Conn.close();
      return Chunk.status();
    }
    if (Chunk->empty()) {
      Conn.close();
      return unavailable("connection closed by " + Addr.str());
    }
    netBytes(false).inc(Chunk->size());
    Decoder.feed(*Chunk);
  }
}

StatusOr<std::string> SocketTransport::roundTrip(
    const std::string &RequestBytes, int TimeoutMs) {
  std::lock_guard<std::mutex> Lock(Mutex);
  CG_RETURN_IF_ERROR(ensureConnected(TimeoutMs));
  return exchange(RequestBytes, TimeoutMs);
}
