#include "nettest/shortest_paths.hpp"

#include <algorithm>
#include <deque>

namespace yardstick::nettest {

std::vector<int> fabric_distances(const net::Network& network, net::DeviceId origin) {
  std::vector<int> dist(network.device_count(), kUnreachable);
  dist[origin.value] = 0;
  std::deque<net::DeviceId> queue{origin};
  while (!queue.empty()) {
    const net::DeviceId v = queue.front();
    queue.pop_front();
    for (const net::InterfaceId intf : network.device(v).interfaces) {
      const net::DeviceId peer = network.neighbor(intf);
      if (peer.valid() && dist[peer.value] == kUnreachable) {
        dist[peer.value] = dist[v.value] + 1;
        queue.push_back(peer);
      }
    }
  }
  return dist;
}

std::vector<net::InterfaceId> contract_next_hops(const net::Network& network,
                                                 const std::vector<int>& distances,
                                                 net::DeviceId device) {
  std::vector<net::InterfaceId> out;
  const int d = distances[device.value];
  if (d <= 0) return out;
  for (const net::InterfaceId intf : network.device(device).interfaces) {
    const net::DeviceId peer = network.neighbor(intf);
    if (peer.valid() && distances[peer.value] == d - 1) out.push_back(intf);
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace yardstick::nettest
