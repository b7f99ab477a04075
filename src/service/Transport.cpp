//===- service/Transport.cpp ----------------------------------*- C++ -*-===//
//
// Part of the CompilerGym-C++ reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "service/Transport.h"

#include <future>

using namespace compiler_gym;
using namespace compiler_gym::service;

Transport::~Transport() = default;

QueueTransport::QueueTransport(Handler Handle)
    : Handle(std::move(Handle)), Dispatcher([this] { dispatchLoop(); }) {}

QueueTransport::~QueueTransport() {
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    Stopping = true;
  }
  Ready.notify_all();
  Dispatcher.join();
}

void QueueTransport::dispatchLoop() {
  for (;;) {
    Call C;
    {
      std::unique_lock<std::mutex> Lock(Mutex);
      Ready.wait(Lock, [this] { return Stopping || !Queue.empty(); });
      if (Stopping && Queue.empty())
        return;
      C = std::move(Queue.front());
      Queue.pop_front();
    }
    C.Reply->set_value(Handle(C.Request));
  }
}

StatusOr<std::string> QueueTransport::roundTrip(const std::string &Bytes,
                                                int TimeoutMs) {
  auto Promise = std::make_shared<std::promise<std::string>>();
  std::future<std::string> Future = Promise->get_future();
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    if (Stopping)
      return unavailable("transport is shut down");
    Queue.push_back({Bytes, Promise});
  }
  Ready.notify_one();
  if (Future.wait_for(std::chrono::milliseconds(TimeoutMs)) !=
      std::future_status::ready)
    return deadlineExceeded("no reply within " + std::to_string(TimeoutMs) +
                            "ms");
  return Future.get();
}
