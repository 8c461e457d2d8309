#include "noc/mesh.hh"

#include <algorithm>

#include "common/logging.hh"

namespace mondrian {

Mesh::Mesh(const MeshConfig &cfg)
    : cfg_(cfg), psPerByte_(cfg.psPerByte())
{
    const unsigned n = cfg_.routers();
    hops_.resize(std::size_t{n} * n);
    for (unsigned src = 0; src < n; ++src) {
        for (unsigned dst = 0; dst < n; ++dst) {
            unsigned sx = src % cfg_.width, sy = src / cfg_.width;
            unsigned dx = dst % cfg_.width, dy = dst / cfg_.width;
            hops_[std::size_t{src} * n + dst] =
                (sx > dx ? sx - dx : dx - sx) + (sy > dy ? sy - dy : dy - sy);
        }
    }
    injectFree_.assign(n, Tick{0});
    ejectFree_.assign(n, Tick{0});
    portBusy_.assign(std::size_t{n} * 2, Tick{0});
}

Tick
Mesh::route(unsigned src, unsigned dst, std::uint64_t bytes, Tick start,
            bool reserve_inject, bool reserve_eject)
{
    sim_assert(src < cfg_.routers() && dst < cfg_.routers());
    stats_.packets++;
    stats_.bytes += bytes;

    if (src == dst)
        return start; // local delivery: no mesh traversal

    const Tick ser = bytes * psPerByte_;
    const unsigned n_hops = hops(src, dst);
    stats_.bitHops += bytes * 8 * n_hops;

    // Injection port: serialize out of the source router.
    Tick depart = start;
    if (reserve_inject) {
        depart = std::max(start, injectFree_[src]);
        injectFree_[src] = depart + ser;
        portBusy_[src] += ser;
    }

    // Interior traversal: latency only (see file comment).
    Tick head = depart + ser + Tick{n_hops} * cfg_.hopLatency;

    // Ejection port: serialize into the destination router.
    Tick eject = head;
    if (reserve_eject) {
        eject = std::max(head, ejectFree_[dst]);
        ejectFree_[dst] = eject + ser;
        portBusy_[std::size_t{cfg_.routers()} + dst] += ser;
    }

    return eject + ser;
}

Tick
Mesh::maxPortReserved() const
{
    Tick m = 0;
    for (Tick t : injectFree_)
        m = std::max(m, t);
    for (Tick t : ejectFree_)
        m = std::max(m, t);
    return m;
}

} // namespace mondrian
