//===- tests/net_test.cpp - Socket transport & framing ---------*- C++ -*-===//
//
// Part of the CompilerGym-C++ reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
// The cross-process transport: frame codec strictness (including a
// malformed-frame corpus — the wire is a fuzz surface), socket loopback
// round trips over Unix-domain and TCP sockets, reconnect behavior, and
// the client retry policy (exponential backoff, reconnect accounting,
// typed backpressure).

#include "datasets/DatasetRegistry.h"
#include "envs/llvm/LlvmSession.h"
#include "fault/FaultRegistry.h"
#include "net/Frame.h"
#include "net/NetServer.h"
#include "net/Socket.h"
#include "net/SocketTransport.h"
#include "service/CompilerService.h"
#include "service/Serialization.h"
#include "service/ServiceClient.h"
#include "telemetry/MetricsRegistry.h"
#include "util/Rng.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <unistd.h>

using namespace compiler_gym;
using namespace compiler_gym::net;
using namespace compiler_gym::service;

namespace {

datasets::Benchmark testBenchmark() {
  auto B = datasets::DatasetRegistry::instance().resolve(
      "benchmark://cbench-v1/crc32");
  EXPECT_TRUE(B.isOk());
  return *B;
}

/// Process-wide series; tests diff them across a window that runs one
/// client and its transport.
telemetry::Counter &series(const std::string &Name) {
  return telemetry::MetricsRegistry::global().counter(Name);
}

std::string uniqueSocketPath(const char *Tag) {
  static std::atomic<int> Counter{0};
  return "/tmp/cg_net_test_" + std::to_string(::getpid()) + "_" + Tag + "_" +
         std::to_string(Counter.fetch_add(1)) + ".sock";
}

// -- Frame codec --------------------------------------------------------------

TEST(Frame, RoundTripsPayload) {
  std::string Payload = "hello, framed world";
  std::string Wire = encodeFrame(Payload);
  EXPECT_EQ(Wire.size(), FrameHeaderBytes + Payload.size());
  FrameDecoder D;
  D.feed(Wire);
  std::string Out;
  ASSERT_EQ(D.next(Out), FrameDecoder::Result::Frame);
  EXPECT_EQ(Out, Payload);
  EXPECT_EQ(D.next(Out), FrameDecoder::Result::NeedMore);
  EXPECT_EQ(D.bufferedBytes(), 0u);
}

TEST(Frame, DecodesIncrementallyByteByByte) {
  std::string Wire = encodeFrame("incremental");
  FrameDecoder D;
  std::string Out;
  for (size_t I = 0; I + 1 < Wire.size(); ++I) {
    D.feed(&Wire[I], 1);
    ASSERT_EQ(D.next(Out), FrameDecoder::Result::NeedMore) << "at byte " << I;
  }
  D.feed(&Wire[Wire.size() - 1], 1);
  ASSERT_EQ(D.next(Out), FrameDecoder::Result::Frame);
  EXPECT_EQ(Out, "incremental");
}

TEST(Frame, DecodesSeveralFramesFromOneBuffer) {
  std::string Wire =
      encodeFrame("one") + encodeFrame("") + encodeFrame("three");
  FrameDecoder D;
  D.feed(Wire);
  std::string Out;
  ASSERT_EQ(D.next(Out), FrameDecoder::Result::Frame);
  EXPECT_EQ(Out, "one");
  ASSERT_EQ(D.next(Out), FrameDecoder::Result::Frame);
  EXPECT_EQ(Out, "");
  ASSERT_EQ(D.next(Out), FrameDecoder::Result::Frame);
  EXPECT_EQ(Out, "three");
  EXPECT_EQ(D.next(Out), FrameDecoder::Result::NeedMore);
}

// The malformed-frame corpus: every damage class must yield a typed error
// (and never UB — this test is part of the ASan job).
TEST(Frame, RejectsBadMagic) {
  std::string Wire = encodeFrame("payload");
  Wire[0] = 'X';
  FrameDecoder D;
  D.feed(Wire);
  std::string Out;
  ASSERT_EQ(D.next(Out), FrameDecoder::Result::Error);
  EXPECT_EQ(D.errorKind(), FrameDecoder::ErrorKind::BadMagic);
  EXPECT_FALSE(D.errorMessage().empty());
}

TEST(Frame, RejectsBadVersion) {
  std::string Wire = encodeFrame("payload");
  Wire[4] = 99;
  FrameDecoder D;
  D.feed(Wire);
  std::string Out;
  ASSERT_EQ(D.next(Out), FrameDecoder::Result::Error);
  EXPECT_EQ(D.errorKind(), FrameDecoder::ErrorKind::BadVersion);
}

TEST(Frame, RejectsOversizedLength) {
  std::string Wire = encodeFrame("payload");
  // Claim a 4GB-ish payload: must be rejected from the header alone,
  // before any buffering.
  Wire[8] = static_cast<char>(0xFF);
  Wire[9] = static_cast<char>(0xFF);
  Wire[10] = static_cast<char>(0xFF);
  Wire[11] = static_cast<char>(0x7F);
  FrameDecoder D;
  D.feed(Wire);
  std::string Out;
  ASSERT_EQ(D.next(Out), FrameDecoder::Result::Error);
  EXPECT_EQ(D.errorKind(), FrameDecoder::ErrorKind::Oversized);
}

TEST(Frame, RejectsCorruptPayload) {
  std::string Wire = encodeFrame("payload-to-corrupt");
  Wire[FrameHeaderBytes + 3] ^= 0x5A;
  FrameDecoder D;
  D.feed(Wire);
  std::string Out;
  ASSERT_EQ(D.next(Out), FrameDecoder::Result::Error);
  EXPECT_EQ(D.errorKind(), FrameDecoder::ErrorKind::BadCrc);
}

TEST(Frame, TruncatedFrameIsNeedMoreNeverError) {
  std::string Wire = encodeFrame("truncate me");
  for (size_t Len = 0; Len < Wire.size(); ++Len) {
    FrameDecoder D;
    D.feed(Wire.data(), Len);
    std::string Out;
    EXPECT_EQ(D.next(Out), FrameDecoder::Result::NeedMore)
        << "prefix of " << Len;
  }
}

TEST(Frame, ErrorPoisonsDecoder) {
  std::string Bad = encodeFrame("x");
  Bad[0] = 'Z';
  FrameDecoder D;
  D.feed(Bad);
  std::string Out;
  ASSERT_EQ(D.next(Out), FrameDecoder::Result::Error);
  // Feeding a perfectly valid frame afterwards must not resurrect the
  // stream: position is unknown after damage.
  D.feed(encodeFrame("valid"));
  EXPECT_EQ(D.next(Out), FrameDecoder::Result::Error);
  EXPECT_EQ(D.errorKind(), FrameDecoder::ErrorKind::BadMagic);
}

TEST(Frame, HonorsConfiguredCap) {
  std::string Payload(2048, 'p');
  std::string Wire = encodeFrame(Payload);
  FrameDecoder D(/*MaxFrameBytes=*/1024);
  D.feed(Wire);
  std::string Out;
  ASSERT_EQ(D.next(Out), FrameDecoder::Result::Error);
  EXPECT_EQ(D.errorKind(), FrameDecoder::ErrorKind::Oversized);
}

TEST(Frame, Crc32MatchesKnownVector) {
  // The standard IEEE check value: crc32("123456789") == 0xCBF43926.
  EXPECT_EQ(crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(crc32("", 0), 0u);
}

// -- Envelope decode hardening ------------------------------------------------
//
// The frame CRC catches random damage; these corpora check that an
// attacker-shaped payload (valid frame, hostile envelope) still fails
// with clean Status errors. Run under ASan in CI.

TEST(Serialization, TruncatedReplyPrefixesFailCleanly) {
  ReplyEnvelope Reply;
  Reply.Code = StatusCode::Ok;
  Reply.Step.ObservationNames = {"Autophase"};
  Observation O;
  O.Type = ObservationType::Int64List;
  O.Ints = {1, 2, 3, 4, 5, 6, 7, 8};
  O.StateKey = 0xFEED;
  Reply.Step.Observations = {O};
  Reply.Step.SessionStateKey = 0xFEED;
  std::string Wire = encodeReply(Reply);
  for (size_t Len = 0; Len < Wire.size(); ++Len) {
    auto Decoded = decodeReply(Wire.substr(0, Len));
    EXPECT_FALSE(Decoded.isOk()) << "prefix of " << Len << " decoded";
  }
}

TEST(Serialization, TruncatedRequestPrefixesFailCleanly) {
  RequestEnvelope Req;
  Req.Kind = RequestKind::Step;
  Req.AuthToken = "tenant-token";
  Req.Step.SessionId = 7;
  Req.Step.ObservationSpaces = {"Ir", "Autophase"};
  Req.Step.ObservationBaseKeys = {0xAB, 0xCD};
  std::string Wire = encodeRequest(Req);
  for (size_t Len = 0; Len < Wire.size(); ++Len) {
    auto Decoded = decodeRequest(Wire.substr(0, Len));
    EXPECT_FALSE(Decoded.isOk()) << "prefix of " << Len << " decoded";
  }
}

TEST(Serialization, MutatedReplyBytesNeverCrash) {
  ReplyEnvelope Reply;
  Reply.Code = StatusCode::Ok;
  Reply.Step.ObservationNames = {"Ir"};
  Observation O;
  O.Type = ObservationType::String;
  O.Str = "define i32 @main() { ret i32 0 }";
  Reply.Step.Observations = {O};
  std::string Wire = encodeReply(Reply);
  Rng Gen(0xC0FFEE);
  for (int Trial = 0; Trial < 2000; ++Trial) {
    std::string Mutated = Wire;
    size_t Flips = 1 + Gen.bounded(4);
    for (size_t F = 0; F < Flips; ++F)
      Mutated[Gen.bounded(Mutated.size())] ^=
          static_cast<char>(1 + Gen.bounded(255));
    // Either it decodes (the mutation hit a payload byte) or it fails
    // with a Status — anything else (crash, OOB read) fails the ASan job.
    (void)decodeReply(Mutated);
  }
}

// -- Address parsing ----------------------------------------------------------

TEST(NetAddress, ParsesTcpAndUnix) {
  auto Tcp = NetAddress::parse("tcp:127.0.0.1:4242");
  ASSERT_TRUE(Tcp.isOk());
  EXPECT_EQ(Tcp->Kind, NetAddress::Family::Tcp);
  EXPECT_EQ(Tcp->Host, "127.0.0.1");
  EXPECT_EQ(Tcp->Port, 4242);
  EXPECT_EQ(Tcp->str(), "tcp:127.0.0.1:4242");

  auto Unix = NetAddress::parse("unix:/tmp/cg.sock");
  ASSERT_TRUE(Unix.isOk());
  EXPECT_EQ(Unix->Kind, NetAddress::Family::Unix);
  EXPECT_EQ(Unix->Path, "/tmp/cg.sock");
  EXPECT_EQ(Unix->str(), "unix:/tmp/cg.sock");
}

TEST(NetAddress, RejectsMalformedSpecs) {
  EXPECT_FALSE(NetAddress::parse("http://x").isOk());
  EXPECT_FALSE(NetAddress::parse("tcp:nohost").isOk());
  EXPECT_FALSE(NetAddress::parse("tcp:1.2.3.4:").isOk());
  EXPECT_FALSE(NetAddress::parse("tcp:1.2.3.4:99999").isOk());
  EXPECT_FALSE(NetAddress::parse("tcp:1.2.3.4:12ab").isOk());
  EXPECT_FALSE(NetAddress::parse("unix:").isOk());
}

// -- Loopback serving ---------------------------------------------------------

class NetLoopbackTest : public ::testing::Test {
protected:
  /// Serves a real CompilerService at \p Addr and returns a client over a
  /// dialed SocketTransport.
  void serveAt(const NetAddress &Addr) {
    envs::registerLlvmEnvironment();
    Service = std::make_shared<CompilerService>();
    auto ServerOr = NetServer::serveSync(
        Addr, [S = Service](const std::string &B) { return S->handle(B); });
    ASSERT_TRUE(ServerOr.isOk()) << ServerOr.status().toString();
    Server = std::move(*ServerOr);
  }

  std::shared_ptr<ServiceClient> makeClient(ClientOptions Opts = {}) {
    Channel = std::make_shared<SocketTransport>(Server->boundAddress());
    return std::make_shared<ServiceClient>(nullptr, Channel, Opts);
  }

  /// A full session: start, two steps, end. Asserts success everywhere.
  void runEpisode(ServiceClient &Client) {
    StartSessionRequest Start;
    Start.CompilerName = "llvm";
    Start.Bench = testBenchmark();
    auto Session = Client.startSession(Start);
    ASSERT_TRUE(Session.isOk()) << Session.status().toString();
    StepRequest Step;
    Step.SessionId = Session->SessionId;
    Action A;
    A.Index = 0;
    Step.Actions = {A};
    Step.ObservationSpaces = {"Autophase"};
    auto R1 = Client.step(Step);
    ASSERT_TRUE(R1.isOk()) << R1.status().toString();
    ASSERT_EQ(R1->Observations.size(), 1u);
    EXPECT_FALSE(R1->Observations[0].Ints.empty());
    auto R2 = Client.step(Step);
    ASSERT_TRUE(R2.isOk()) << R2.status().toString();
    EXPECT_TRUE(Client.endSession(Session->SessionId).isOk());
  }

  std::shared_ptr<CompilerService> Service;
  std::unique_ptr<NetServer> Server;
  std::shared_ptr<SocketTransport> Channel;
};

TEST_F(NetLoopbackTest, UnixDomainEpisode) {
  NetAddress Addr;
  Addr.Kind = NetAddress::Family::Unix;
  Addr.Path = uniqueSocketPath("uds");
  serveAt(Addr);
  telemetry::Counter &Connected = series("cg_net_connects_total");
  const uint64_t ConnectsBefore = Connected.value();
  auto Client = makeClient();
  EXPECT_TRUE(Client->heartbeat().isOk());
  runEpisode(*Client);
  EXPECT_EQ(Connected.value() - ConnectsBefore, 1u);
}

TEST_F(NetLoopbackTest, TcpEpisodeOnEphemeralPort) {
  auto Addr = NetAddress::parse("tcp:127.0.0.1:0");
  ASSERT_TRUE(Addr.isOk());
  serveAt(*Addr);
  EXPECT_NE(Server->boundAddress().Port, 0); // Port 0 resolved.
  auto Client = makeClient();
  runEpisode(*Client);
}

TEST_F(NetLoopbackTest, ManyConcurrentConnections) {
  auto Addr = NetAddress::parse("tcp:127.0.0.1:0");
  ASSERT_TRUE(Addr.isOk());
  serveAt(*Addr);
  constexpr int N = 8;
  std::vector<std::thread> Threads;
  std::atomic<int> Failures{0};
  for (int I = 0; I < N; ++I)
    Threads.emplace_back([this, &Failures] {
      auto Ch = std::make_shared<SocketTransport>(Server->boundAddress());
      ServiceClient Client(nullptr, Ch);
      for (int K = 0; K < 5; ++K)
        if (!Client.heartbeat().isOk())
          Failures.fetch_add(1);
    });
  for (auto &T : Threads)
    T.join();
  EXPECT_EQ(Failures.load(), 0);
}

TEST_F(NetLoopbackTest, ReconnectsAfterServerRestart) {
  NetAddress Addr;
  Addr.Kind = NetAddress::Family::Unix;
  Addr.Path = uniqueSocketPath("restart");
  serveAt(Addr);
  // Generous retries: the client must ride through the restart below.
  ClientOptions Opts;
  Opts.MaxRetries = 6;
  Opts.RetryBackoffMs = 1;
  Opts.RetryBackoffMaxMs = 40;
  telemetry::Counter &Connected = series("cg_net_connects_total");
  telemetry::Counter &Reconnects = series("cg_client_reconnects_total");
  const uint64_t ConnectsBefore = Connected.value();
  const uint64_t ReconnectsBefore = Reconnects.value();
  auto Client = makeClient(Opts);
  ASSERT_TRUE(Client->heartbeat().isOk());

  Server.reset(); // Connection dies with the server.
  std::thread Restarter([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    auto ServerOr = NetServer::serveSync(
        Addr, [S = Service](const std::string &B) { return S->handle(B); });
    ASSERT_TRUE(ServerOr.isOk());
    Server = std::move(*ServerOr);
  });
  Status S = Client->heartbeat();
  Restarter.join();
  EXPECT_TRUE(S.isOk()) << S.toString();
  EXPECT_GE(Connected.value() - ConnectsBefore, 2u);
  EXPECT_GE(Reconnects.value() - ReconnectsBefore, 1u);
}

TEST_F(NetLoopbackTest, GarbageOnTheWireDropsConnectionCleanly) {
  NetAddress Addr;
  Addr.Kind = NetAddress::Family::Unix;
  Addr.Path = uniqueSocketPath("garbage");
  serveAt(Addr);
  auto Conn = Socket::connect(Addr, 1000);
  ASSERT_TRUE(Conn.isOk());
  // Not a frame at all: the server must drop us, not hang or crash.
  ASSERT_TRUE(Conn->writeAll(std::string(64, 'Z'), 1000).isOk());
  auto Readback = Conn->readSome(1024, 2000);
  ASSERT_TRUE(Readback.isOk()) << Readback.status().toString();
  EXPECT_TRUE(Readback->empty()) << "expected EOF after garbage";
  // The server is still healthy for well-behaved clients.
  auto Client = makeClient();
  EXPECT_TRUE(Client->heartbeat().isOk());
}

TEST_F(NetLoopbackTest, ClientTimeoutSurfacesAsDeadline) {
  NetAddress Addr;
  Addr.Kind = NetAddress::Family::Unix;
  Addr.Path = uniqueSocketPath("slow");
  // A server that never replies.
  auto ServerOr = NetServer::serve(
      Addr, [](std::string, ReplyFn) { /* drop the request */ });
  ASSERT_TRUE(ServerOr.isOk());
  auto Transport = std::make_shared<SocketTransport>(Addr);
  auto Reply = Transport->roundTrip("ping", /*TimeoutMs=*/60);
  ASSERT_FALSE(Reply.isOk());
  EXPECT_EQ(Reply.status().code(), StatusCode::DeadlineExceeded);
}

// -- Client retry policy ------------------------------------------------------

namespace {

/// Returns canned failures for the first N calls, then delegates.
class ScriptedTransport : public Transport {
public:
  ScriptedTransport(std::shared_ptr<Transport> Inner,
                    std::vector<StatusOr<std::string>> Script)
      : Inner(std::move(Inner)), Script(std::move(Script)) {}

  StatusOr<std::string> roundTrip(const std::string &Bytes,
                                  int TimeoutMs) override {
    std::lock_guard<std::mutex> Lock(M);
    if (Cursor < Script.size())
      return Script[Cursor++];
    return Inner->roundTrip(Bytes, TimeoutMs);
  }

  size_t calls() const {
    std::lock_guard<std::mutex> Lock(M);
    return Cursor;
  }

private:
  std::shared_ptr<Transport> Inner;
  std::vector<StatusOr<std::string>> Script;
  size_t Cursor = 0;
  mutable std::mutex M;
};

} // namespace

TEST(ClientRetry, DisconnectFaultsAreRetriedAndCounted) {
  auto Service = std::make_shared<CompilerService>();
  // Every call: connection reset.
  fault::FaultPlanSpec Plan;
  Plan.Rules.push_back({.Point = "transport.round_trip",
                        .Kind = fault::FaultKind::Error,
                        .Code = StatusCode::Unavailable});
  fault::ScopedFaultPlan Armed(Plan);
  ClientOptions Opts;
  Opts.MaxRetries = 3;
  Opts.RetryBackoffMs = 1;
  Opts.RetryBackoffMaxMs = 4;
  telemetry::Counter &Retries = series("cg_client_retries_total");
  telemetry::Counter &Reconnects = series("cg_client_reconnects_total");
  const uint64_t RetriesBefore = Retries.value();
  const uint64_t ReconnectsBefore = Reconnects.value();
  ServiceClient Client(Service, Opts);
  Status S = Client.heartbeat();
  ASSERT_FALSE(S.isOk());
  EXPECT_EQ(S.code(), StatusCode::Unavailable);
  EXPECT_EQ(Retries.value() - RetriesBefore, 3u);
  // Every failed attempt (initial + 3 retries) was channel loss.
  EXPECT_EQ(Reconnects.value() - ReconnectsBefore, 4u);
}

TEST(ClientRetry, PartialWriteFaultIsRetriedAsGarbled) {
  auto Service = std::make_shared<CompilerService>();
  // Half the replies are cut off mid-stream (a partial write on the peer).
  fault::FaultPlanSpec Plan;
  Plan.Seed = 0x7E57;
  Plan.Rules.push_back({.Point = "transport.reply",
                        .Kind = fault::FaultKind::Corrupt,
                        .Probability = 0.5});
  fault::ScopedFaultPlan Armed(Plan);
  ClientOptions Opts;
  Opts.MaxRetries = 8;
  Opts.RetryBackoffMs = 1;
  Opts.RetryBackoffMaxMs = 2;
  telemetry::Counter &Retries = series("cg_client_retries_total");
  telemetry::Counter &Reconnects = series("cg_client_reconnects_total");
  const uint64_t RetriesBefore = Retries.value();
  const uint64_t ReconnectsBefore = Reconnects.value();
  ServiceClient Client(Service, Opts);
  // With p=0.5 and 9 attempts per call, 20 heartbeats all succeed with
  // overwhelming probability — and some retries must have happened.
  for (int I = 0; I < 20; ++I)
    ASSERT_TRUE(Client.heartbeat().isOk());
  EXPECT_GT(Retries.value(), RetriesBefore);
  // Garbled is not channel loss.
  EXPECT_EQ(Reconnects.value(), ReconnectsBefore);
}

TEST(ClientRetry, TypedBackpressureIsHonoredWithoutRecovery) {
  auto Service = std::make_shared<CompilerService>();
  auto Base = std::make_shared<QueueTransport>(
      [Service](const std::string &B) { return Service->handle(B); });
  // Two flow-control rejections, then the real service.
  ReplyEnvelope Busy;
  Busy.Code = StatusCode::Unavailable;
  Busy.ErrorMessage = "queue full";
  Busy.RetryAfterMs = 5;
  std::string BusyWire = encodeReply(Busy);
  auto Scripted = std::make_shared<ScriptedTransport>(
      Base, std::vector<StatusOr<std::string>>{BusyWire, BusyWire});
  ClientOptions Opts;
  Opts.MaxRetries = 3;
  Opts.RetryBackoffMs = 1;
  telemetry::Counter &Retries = series("cg_client_retries_total");
  telemetry::Counter &Reconnects = series("cg_client_reconnects_total");
  telemetry::Counter &Restarted = series("cg_client_service_restarts_total");
  const uint64_t RetriesBefore = Retries.value();
  const uint64_t ReconnectsBefore = Reconnects.value();
  const uint64_t RestartsBefore = Restarted.value();
  ServiceClient Client(Service, Scripted, Opts);
  Status S = Client.heartbeat();
  EXPECT_TRUE(S.isOk()) << S.toString();
  EXPECT_EQ(Retries.value() - RetriesBefore, 2u);
  // Backpressure is flow control, not channel loss: no reconnects, no
  // restarts.
  EXPECT_EQ(Reconnects.value(), ReconnectsBefore);
  EXPECT_EQ(Restarted.value(), RestartsBefore);
}

TEST(ClientRetry, ExhaustedBackpressureSurfacesTypedReply) {
  auto Service = std::make_shared<CompilerService>();
  auto Base = std::make_shared<QueueTransport>(
      [Service](const std::string &B) { return Service->handle(B); });
  ReplyEnvelope Busy;
  Busy.Code = StatusCode::Unavailable;
  Busy.ErrorMessage = "tenant over quota";
  Busy.RetryAfterMs = 2;
  std::string BusyWire = encodeReply(Busy);
  auto Scripted = std::make_shared<ScriptedTransport>(
      Base,
      std::vector<StatusOr<std::string>>{BusyWire, BusyWire, BusyWire});
  ClientOptions Opts;
  Opts.MaxRetries = 2; // Fewer attempts than rejections.
  Opts.RetryBackoffMs = 1;
  ServiceClient Client(Service, Scripted, Opts);
  Status S = Client.heartbeat();
  ASSERT_FALSE(S.isOk());
  EXPECT_EQ(S.code(), StatusCode::Unavailable);
  // The server's message, not a transport artifact.
  EXPECT_NE(S.message().find("tenant over quota"), std::string::npos);
}

TEST(ClientRetry, NullServiceRestartIsNoOp) {
  auto Service = std::make_shared<CompilerService>();
  auto Base = std::make_shared<QueueTransport>(
      [Service](const std::string &B) { return Service->handle(B); });
  telemetry::Counter &Restarted = series("cg_client_service_restarts_total");
  const uint64_t RestartsBefore = Restarted.value();
  ServiceClient Client(nullptr, Base);
  Client.restartService(); // Must not crash.
  EXPECT_EQ(Restarted.value(), RestartsBefore);
  EXPECT_TRUE(Client.heartbeat().isOk());
}

} // namespace
