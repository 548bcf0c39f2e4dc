#include "http/server.h"

#include "http/event_front.h"

namespace sbq::http {

Response make_shed_response(std::uint64_t retry_after_s) {
  Response resp;
  resp.status = 503;
  resp.reason = std::string(reason_phrase(503));
  resp.headers.set("Retry-After", std::to_string(retry_after_s));
  resp.headers.set("Connection", "close");
  resp.headers.set("Content-Type", "text/plain");
  resp.set_body("server overloaded; retry later");
  return resp;
}

Server::Server(std::uint16_t port, Handler handler, ServerOptions options)
    : handler_(std::move(handler)),
      event_front_(std::make_unique<EventFront>(port, handler_, options,
                                                counters_, draining_)) {}

Server::~Server() {
  shutdown();
}

std::uint16_t Server::port() const {
  return event_front_->port();
}

void Server::shutdown(std::uint64_t drain_deadline_us) {
  event_front_->shutdown(drain_deadline_us);
}

ServerLoad Server::load() const {
  return event_front_->load();
}

std::size_t Server::tracked_connections() const {
  return event_front_->connection_count();
}

}  // namespace sbq::http
