// Packet-level reliable transport with AIMD congestion control.
//
// The fluid model in congestion.hpp sweeps the compliance tussle cheaply;
// this module grounds it on the real data plane: a Go-Back-N window
// protocol with slow start, congestion avoidance, and timeout back-off —
// and an "aggressive" variant that simply refuses to back off, which is the
// §II-B cheater made concrete. The apps_transport tests reproduce the E12
// starvation result packet by packet.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "apps/mux.hpp"
#include "sim/stats.hpp"

namespace tussle::apps {

/// The transport's payload tags: "seg:<flow>:<seq>" on a segment and
/// "ack:<flow>:<cumulative seq>" on an ack, both numbers in decimal.
std::string segment_tag(net::FlowId flow, std::uint64_t seq);
std::string ack_tag(net::FlowId flow, std::uint64_t cum_seq);

/// Reads a tag "<prefix><a>:<b>" into `a` and `b`. False, so the tag is
/// ignored, when it lacks the prefix or the colon, or when either number is
/// empty or does not fit 64 bits. Whatever follows `b` is not read.
bool parse_tag(std::string_view tag, std::string_view prefix, std::uint64_t& a,
               std::uint64_t& b);

/// Acks segments for every flow arriving at a node. Install once per
/// receiving mux; it acknowledges cumulatively (Go-Back-N semantics:
/// out-of-order segments are dropped, the last in-order seq is re-acked).
class FlowSink {
 public:
  FlowSink(net::Network& net, net::NodeId node, net::Address addr,
           std::shared_ptr<AppMux> mux, net::AppProto proto);

  std::uint64_t segments_received() const noexcept { return received_; }
  std::uint64_t bytes_received() const noexcept { return bytes_; }

 private:
  net::Network* net_;
  net::NodeId node_;
  net::Address addr_;
  std::map<net::FlowId, std::uint64_t> rcv_next_;
  std::uint64_t received_ = 0;
  std::uint64_t bytes_ = 0;
};

struct AimdConfig {
  std::uint32_t segment_bytes = 1000;
  std::uint64_t total_segments = 200;
  double initial_ssthresh = 32;
  sim::Duration rto = sim::Duration::millis(200);
  /// Aggressive senders use a fixed window and never back off (§II-B).
  bool aggressive = false;
  double aggressive_window = 64;
};

/// One unidirectional reliable flow. Construct, then start(); completion
/// and statistics are queryable after the simulation runs.
class AimdFlow {
 public:
  AimdFlow(net::Network& net, net::NodeId node, net::Address src, net::Address dst,
           std::shared_ptr<AppMux> src_mux, net::AppProto proto, net::FlowId id,
           AimdConfig cfg);

  void start();

  bool finished() const noexcept { return base_ >= cfg_.total_segments; }
  double completion_time_s() const noexcept { return finish_time_s_; }
  /// Goodput in bytes/second over the flow's lifetime (0 if unfinished).
  double goodput_bps() const noexcept;
  std::uint64_t retransmissions() const noexcept { return retransmissions_; }
  std::uint64_t timeouts() const noexcept { return timeouts_; }
  double final_cwnd() const noexcept { return cwnd_; }
  net::FlowId id() const noexcept { return id_; }

 private:
  void on_ack(std::uint64_t cum_seq);
  void pump();                 ///< send while the window allows
  void send_segment(std::uint64_t seq);
  void arm_timer();
  void on_timeout();

  net::Network* net_;
  net::NodeId node_;
  net::Address src_;
  net::Address dst_;
  net::AppProto proto_;
  net::FlowId id_;
  AimdConfig cfg_;

  std::uint64_t base_ = 0;      ///< lowest unacked seq
  std::uint64_t next_seq_ = 0;  ///< next seq to send
  double cwnd_ = 1;
  double ssthresh_ = 0;
  sim::EventId timer_{};
  std::uint64_t timer_epoch_ = 0;
  std::uint64_t retransmissions_ = 0;
  std::uint64_t timeouts_ = 0;
  double start_time_s_ = 0;
  double finish_time_s_ = 0;
  bool started_ = false;
};

}  // namespace tussle::apps
