#include "rpc/message_bus.h"

#include "common/logging.h"
#include "common/strings.h"

namespace gqp {

Status MessageBus::RegisterEndpoint(const Address& addr, Handler handler) {
  if (addr.host == kInvalidHost || addr.service.empty()) {
    return Status::InvalidArgument("endpoint needs a host and service name");
  }
  EnsureHostRegistered(addr.host);
  if (!endpoints_.emplace(addr, std::move(handler)).second) {
    return Status::AlreadyExists(
        StrCat("endpoint already registered: ", addr.ToString()));
  }
  return Status::OK();
}

void MessageBus::UnregisterEndpoint(const Address& addr) {
  endpoints_.erase(addr);
}

void MessageBus::EnsureHostRegistered(HostId host) {
  if (hosts_.insert(host).second) {
    network_->RegisterHost(host,
                           [this](const Message& msg) { Deliver(msg); });
  }
}

Status MessageBus::Send(const Address& from, const Address& to,
                        PayloadPtr payload) {
  Message msg;
  msg.from = from;
  msg.to = to;
  msg.payload = std::move(payload);
  if (reliable_ && from.host != to.host) {
    return reliable_->Send(std::move(msg));
  }
  return network_->Send(std::move(msg));
}

Status MessageBus::SendBestEffort(const Address& from, const Address& to,
                                  PayloadPtr payload) {
  Message msg;
  msg.from = from;
  msg.to = to;
  msg.payload = std::move(payload);
  return network_->Send(std::move(msg));
}

void MessageBus::EnableReliableTransport(const ReliableConfig& config) {
  if (!config.enabled || reliable_) return;
  reliable_ = std::make_unique<ReliableTransport>(
      network_, config, [this](const Message& msg) { DispatchToEndpoint(msg); });
}

void MessageBus::Deliver(const Message& msg) {
  // Transport payloads (envelopes, acks) never reach endpoints.
  if (reliable_ && reliable_->MaybeHandle(msg)) return;
  DispatchToEndpoint(msg);
}

void MessageBus::DispatchToEndpoint(const Message& msg) {
  auto it = endpoints_.find(msg.to);
  if (it != endpoints_.end()) {
    it->second(msg);
    return;
  }
  ++dropped_;
  GQP_LOG_DEBUG << "dropping message for unknown endpoint "
                << msg.to.ToString() << " (type "
                << (msg.payload ? msg.payload->TypeName() : "null") << ")";
}

}  // namespace gqp
