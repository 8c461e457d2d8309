/**
 * @file
 * Intra-stack 2D mesh interconnect model.
 *
 * Each HMC stack's logic layer carries a 2D mesh connecting the vault
 * tiles (Table 3: 16 B links, 3 cycles/hop). The model charges XY-route
 * latency per hop and serializes bandwidth at the two endpoints of every
 * traversal: the source router's injection port and the destination
 * router's ejection port.
 *
 * Endpoint-only contention is deliberate. A single next-free-time per
 * interior link cannot represent a reservation at a future instant without
 * also blocking every earlier slot; when SerDes queues delay cross-stack
 * messages, those far-future interior reservations would cascade into a
 * network-wide convoy that has no physical counterpart. Injection and
 * ejection ports see (near-)monotone arrival orders, where next-free-time
 * is accurate -- and they are exactly where a 4x4 mesh of 32 GB/s links
 * actually saturates first (the ejection port of a hot vault, the port
 * router feeding a SerDes link).
 */

#ifndef MONDRIAN_NOC_MESH_HH
#define MONDRIAN_NOC_MESH_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"

namespace mondrian {

/** Mesh configuration. */
struct MeshConfig
{
    unsigned width = 4;          ///< routers per row
    unsigned height = 4;         ///< routers per column
    Tick hopLatency = 3000;      ///< 3 ns per hop (Table 3: 3 cycles/hop)
    std::uint64_t linkBytesPerCycle = 16; ///< 16 B links (Table 3)
    /**
     * Logic-layer network clock: 2 GHz. Table 3 gives 16 B links and
     * 3 cycles/hop; for the paper's SerDes-bound partitioning story to
     * hold (4.5 GB/s/vault of payload in 16 B messages), the mesh must
     * sustain ~2x the vault bandwidth per link, i.e. a 2 GHz link clock.
     */
    Tick cycle = 500;

    Tick psPerByte() const { return cycle / linkBytesPerCycle; }
    unsigned routers() const { return width * height; }
};

/** Cumulative mesh statistics. */
struct MeshStats
{
    std::uint64_t packets = 0;
    std::uint64_t bytes = 0;
    std::uint64_t bitHops = 0; ///< bits x hops traversed (for energy)
};

/** One stack's mesh: XY latency, endpoint-port contention. */
class Mesh
{
  public:
    explicit Mesh(const MeshConfig &cfg);

    /**
     * Route @p bytes from router @p src to router @p dst, entering the
     * network at @p start. Reserves serialization time on the source's
     * injection port and the destination's ejection port.
     *
     * @param reserve_inject serialize at the source's injection port;
     *        pass false when the hand-off is paced upstream (a SerDes
     *        link delivering into the mesh), so late deliveries cannot
     *        convoy the router's own traffic.
     * @param reserve_eject likewise for the destination's ejection port
     *        (a SerDes link draining the mesh paces itself).
     * @return tick at which the tail of the packet arrives at @p dst.
     */
    Tick route(unsigned src, unsigned dst, std::uint64_t bytes, Tick start,
               bool reserve_inject = true, bool reserve_eject = true);

    /** Number of mesh hops between two routers (Manhattan distance). */
    unsigned
    hops(unsigned src, unsigned dst) const
    {
        return hops_[std::size_t{src} * cfg_.routers() + dst];
    }

    const MeshConfig &config() const { return cfg_; }
    const MeshStats &stats() const { return stats_; }

    /** Cumulative serialization per port (diagnostics): inject then eject. */
    const std::vector<Tick> &portBusy() const { return portBusy_; }

    /** Latest port next-free-time (hotspot diagnostics). */
    Tick maxPortReserved() const;

  private:
    MeshConfig cfg_;
    Tick psPerByte_;            ///< cfg_.psPerByte(), hoisted off route()
    std::vector<unsigned> hops_; ///< routers x routers hop counts
    std::vector<Tick> injectFree_; ///< per-router injection port
    std::vector<Tick> ejectFree_;  ///< per-router ejection port
    std::vector<Tick> portBusy_;   ///< 2*routers: inject busy, eject busy
    MeshStats stats_;
};

} // namespace mondrian

#endif // MONDRIAN_NOC_MESH_HH
