//===- service/Transport.h - Client/server message channel ------*- C++ -*-===//
//
// Part of the CompilerGym-C++ reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The byte-level channel between frontend and backend. The paper runs
/// compiler services in separate processes behind gRPC; here the boundary
/// is preserved as serialized messages crossing a queue to a dedicated
/// service thread (QueueTransport). Channel faults (drops, resets,
/// garbled replies, latency) are injected by fault::FaultRegistry rules
/// at the transport points ServiceClient passes on every attempt, so any
/// Transport takes them without a wrapper.
///
//===----------------------------------------------------------------------===//

#ifndef COMPILER_GYM_SERVICE_TRANSPORT_H
#define COMPILER_GYM_SERVICE_TRANSPORT_H

#include "util/Status.h"

#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>

namespace compiler_gym {
namespace service {

/// Abstract request/reply channel.
class Transport {
public:
  virtual ~Transport();

  /// Sends \p RequestBytes and blocks up to \p TimeoutMs for the reply.
  /// DeadlineExceeded on timeout; Unavailable when the channel is down.
  virtual StatusOr<std::string> roundTrip(const std::string &RequestBytes,
                                          int TimeoutMs) = 0;
};

/// Serialized-queue transport: requests cross a mutex-protected queue to a
/// dedicated dispatcher thread running \p Handler (the service), replies
/// come back through a per-call promise. This is the process boundary
/// stand-in: all traffic is fully serialized and the caller can time out
/// independently of the service making progress.
class QueueTransport : public Transport {
public:
  using Handler = std::function<std::string(const std::string &)>;

  explicit QueueTransport(Handler Handle);
  ~QueueTransport() override;

  StatusOr<std::string> roundTrip(const std::string &RequestBytes,
                                  int TimeoutMs) override;

private:
  struct Call {
    std::string Request;
    std::shared_ptr<std::promise<std::string>> Reply;
  };

  void dispatchLoop();

  Handler Handle;
  std::mutex Mutex;
  std::condition_variable Ready;
  std::deque<Call> Queue;
  bool Stopping = false;
  std::thread Dispatcher;
};

} // namespace service
} // namespace compiler_gym

#endif // COMPILER_GYM_SERVICE_TRANSPORT_H
