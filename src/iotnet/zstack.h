// Copyright 2026 The siot-trust Authors.
// Simplified Z-Stack analogue (§5.2): the five layers of TI's Z-Stack —
// ZigBee Device Objects (ZDO), Application Framework (AF), Application
// Support Sublayer (APS), ZigBee network layer (NWK) and ZMAC — modeled at
// the granularity the trust experiments need: association with the
// coordinator (ZDO), application payloads with endpoints (AF/APS),
// fragmentation and reassembly (APS), direct/star routing (NWK), and
// CSMA/CA timing with retries (ZMAC).

#ifndef SIOT_IOTNET_ZSTACK_H_
#define SIOT_IOTNET_ZSTACK_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common/rng.h"
#include "iotnet/event_queue.h"
#include "iotnet/radio.h"

namespace siot::iotnet {

/// Device address (index into the network's device table).
using DeviceAddr = std::uint16_t;

inline constexpr DeviceAddr kCoordinatorAddr = 0;
inline constexpr DeviceAddr kBroadcastAddr = 0xFFFF;

/// Application payload types used by the experiments.
enum class PayloadType : std::uint8_t {
  kData = 0,          ///< Generic application data.
  kTaskRequest = 1,   ///< Trustor -> trustee delegation request.
  kTaskResponse = 2,  ///< Trustee -> trustor response (may be fragmented).
  kReport = 3,        ///< Node -> coordinator report message.
  kBeacon = 4,        ///< Coordinator network formation beacon.
};

/// An application-layer message (AF frame before APS fragmentation).
struct AppMessage {
  DeviceAddr source = 0;
  DeviceAddr destination = 0;
  std::uint8_t endpoint = 1;
  PayloadType type = PayloadType::kData;
  /// Application payload length in bytes (content is abstracted; the
  /// experiments attach structured metadata instead).
  std::size_t payload_bytes = 0;
  /// Opaque experiment metadata carried end-to-end.
  std::int64_t tag = 0;
  double value = 0.0;
  /// Extra sender-imposed delay between fragments. Honest devices leave
  /// this at 0; the §5.6 attackers stretch it to prolong the interaction.
  SimTime fragment_gap = 0;
  /// If nonzero, overrides the MAC fragment payload size downwards — the
  /// §5.6 "fragment packages" attack sends many tiny fragments.
  std::size_t force_fragment_size = 0;
};

/// MAC-layer configuration (802.15.4-flavoured CSMA/CA).
struct MacParams {
  /// Maximum MAC payload per frame; larger APS payloads fragment.
  std::size_t max_frame_payload = 96;
  /// MAC+NWK+APS header overhead per frame (bytes).
  std::size_t header_bytes = 21;
  /// CSMA backoff window (microseconds, uniform).
  SimTime min_backoff = 320;
  SimTime max_backoff = 2240;
  /// Retries per frame before the stack reports a delivery failure.
  std::size_t max_retries = 3;
  /// Inter-frame spacing.
  SimTime ifs = 192;
};

/// Per-layer transmit/receive counters (visible in tests and reports).
struct LayerStats {
  std::size_t zdo_associations = 0;
  std::size_t af_messages_sent = 0;
  std::size_t af_messages_received = 0;
  std::size_t aps_fragments_sent = 0;
  std::size_t aps_fragments_received = 0;
  std::size_t nwk_forwarded = 0;
  std::size_t mac_frames_sent = 0;
  std::size_t mac_retries = 0;
  std::size_t mac_drops = 0;
};

class IoTNetwork;

/// One device's protocol stack instance.
///
/// The stack talks to the shared network object for the radio medium and
/// event queue, accounts the device's radio-active time (the Fig. 14
/// metric feeds from here), and reassembles fragmented messages.
class ZStack {
 public:
  ZStack(IoTNetwork* network, DeviceAddr self, MacParams params,
         std::uint64_t seed);

  DeviceAddr address() const { return self_; }
  const LayerStats& stats() const { return stats_; }

  /// ZDO: associate with the coordinator (counts an association; the
  /// coordinator accepts every in-range device in these experiments).
  void Associate();
  bool associated() const { return associated_; }

  /// AF/APS entry point: queues an application message. Large payloads are
  /// fragmented; each fragment contends for the channel (CSMA), is retried
  /// on loss, and the whole message is delivered to the peer stack on
  /// arrival of the last fragment.
  void SendMessage(const AppMessage& message);

  /// Registers the receive callback (AF indication).
  void OnReceive(std::function<void(const AppMessage&)> handler) {
    receive_handler_ = std::move(handler);
  }

  /// Radio-active time accumulated by this device (microseconds): channel
  /// sensing, backoff, transmission, and reception all count.
  SimTime active_time() const { return active_time_; }

  /// Internal: called by the network when a fragment addressed to this
  /// device arrives. `air_time` is accounted as receive-active time.
  void DeliverFragment(const AppMessage& message, std::size_t fragment_index,
                       std::size_t fragment_count, SimTime air_time);

 private:
  void TransmitFragment(const AppMessage& message,
                        std::size_t fragment_index,
                        std::size_t fragment_count, std::size_t bytes,
                        std::size_t attempt);

  IoTNetwork* network_;
  DeviceAddr self_;
  MacParams params_;
  Rng rng_;
  LayerStats stats_;
  bool associated_ = false;
  SimTime active_time_ = 0;
  std::function<void(const AppMessage&)> receive_handler_;
  // Reassembly: key = (source, tag) -> fragments seen.
  std::map<std::pair<DeviceAddr, std::int64_t>, std::size_t> reassembly_;
};

}  // namespace siot::iotnet

#endif  // SIOT_IOTNET_ZSTACK_H_
