#include "core/cache.hh"

#include <algorithm>

#include "common/intmath.hh"
#include "common/logging.hh"

namespace mondrian {

Cache::Cache(const CacheConfig &cfg) : cfg_(cfg)
{
    if (cfg_.sizeBytes % (std::uint64_t{cfg_.lineBytes} * cfg_.associativity))
        fatal("cache size must be a multiple of line*assoc");
    numSets_ = cfg_.sizeBytes / (std::uint64_t{cfg_.lineBytes} *
                                 cfg_.associativity);
    if (!isPowerOf2(cfg_.lineBytes) || !isPowerOf2(numSets_))
        fatal("cache line size (%u) and set count (%zu) must be powers "
              "of two", cfg_.lineBytes, numSets_);
    lineShift_ = static_cast<unsigned>(floorLog2(cfg_.lineBytes));
    setMask_ = numSets_ - 1;
    if (cfg_.prefetchDepth > CacheAccessResult::kMaxPrefetch)
        fatal("prefetchDepth %u exceeds inline result capacity %u",
              cfg_.prefetchDepth, CacheAccessResult::kMaxPrefetch);
    tags_.assign(numSets_ * cfg_.associativity, kNoTag);
    stamps_.assign(numSets_ * cfg_.associativity, 0);
    flags_.assign(numSets_ * cfg_.associativity, 0);
    fills_.assign(numSets_, 0);
}

std::size_t
Cache::lookup(std::size_t set, std::uint64_t line) const
{
    // Dense scan: invalid ways hold kNoTag, which no real line equals.
    const std::size_t base = set * cfg_.associativity;
    for (std::size_t i = base; i < base + cfg_.associativity; ++i)
        if (tags_[i] == line)
            return i;
    return kNoWay;
}

std::size_t
Cache::victim(std::size_t set) const
{
    // One victim policy serves demand fills and prefetch inserts alike,
    // keeping the replacement behavior of the two paths identical by
    // construction. Valid ways are a prefix (see fills_), so a set that
    // is not full fills its first invalid way with no stamp scan.
    const std::size_t base = set * cfg_.associativity;
    if (fills_[set] < cfg_.associativity)
        return base + fills_[set];
    // Branch-free argmin: which way is oldest is data-dependent, so a
    // branch per way mispredicts; conditional moves do not.
    std::size_t v = base;
    std::uint64_t oldest = stamps_[base];
    for (std::size_t i = base + 1; i < base + cfg_.associativity; ++i) {
        const std::uint64_t s = stamps_[i];
        const bool older = s < oldest;
        oldest = older ? s : oldest;
        v = older ? i : v;
    }
    return v;
}

std::optional<Addr>
Cache::fillAt(std::size_t set, std::size_t idx, std::uint64_t line,
              bool dirty, bool prefetched)
{
    std::optional<Addr> writeback;
    if (!(flags_[idx] & kValid)) {
        ++fills_[set];
    } else if (flags_[idx] & kDirty) {
        writeback = tags_[idx] << lineShift_;
        stats_.writebacks++;
    }
    tags_[idx] = line;
    flags_[idx] = static_cast<std::uint8_t>(
        kValid | (dirty ? kDirty : 0) | (prefetched ? kPrefetched : 0));
    stamps_[idx] = ++stamp_;
    return writeback;
}

CacheAccessResult
Cache::access(Addr addr, bool is_write)
{
    stats_.accesses++;
    CacheAccessResult res;
    const std::uint64_t line = lineAddr(addr);
    const std::size_t set = setOf(line);
    const std::size_t i = lookup(set, line);

    if (i != kNoWay) {
        res.hit = true;
        res.prefetchHit = (flags_[i] & kPrefetched) != 0;
        if (res.prefetchHit) {
            stats_.prefetchHits++;
            flags_[i] &= static_cast<std::uint8_t>(~kPrefetched);
            // Keep the stream rolling: prefetch ahead of the consumed
            // line too, not just on demand misses.
            for (unsigned d = 1; d <= cfg_.prefetchDepth; ++d) {
                res.prefetchFills.push_back((line + d) << lineShift_);
                stats_.prefetchIssued++;
            }
        } else {
            stats_.hits++;
        }
        if (is_write)
            flags_[i] |= kDirty;
        stamps_[i] = ++stamp_;
        return res;
    }

    // Miss: fill over the set's victim, trigger the prefetcher.
    stats_.misses++;
    res.writebackAddr = fillAt(set, victim(set), line, is_write, false);
    for (unsigned d = 1; d <= cfg_.prefetchDepth; ++d) {
        res.prefetchFills.push_back((line + d) << lineShift_);
        stats_.prefetchIssued++;
    }
    return res;
}

std::uint32_t
Cache::accessRun(Addr addr, std::uint32_t size, std::uint32_t n,
                 bool is_write)
{
    std::uint32_t done = 0;
    while (done < n) {
        const std::uint64_t line = lineAddr(addr + Addr{done} * size);
        const std::size_t i = lookup(setOf(line), line);
        if (i == kNoWay || (flags_[i] & kPrefetched))
            break; // boundary: the per-access path models this one
        // Count the accesses whose start falls on this same line; one
        // probe then covers them all.
        std::uint32_t k = 1;
        while (done + k < n &&
               lineAddr(addr + Addr{done + k} * size) == line)
            ++k;
        stats_.accesses += k;
        stats_.hits += k;
        if (is_write)
            flags_[i] |= kDirty;
        // k individual hits each do stamps_[i] = ++stamp_; only the last
        // value sticks, so bump the clock by k and store once.
        stamp_ += k;
        stamps_[i] = stamp_;
        done += k;
    }
    return done;
}

bool
Cache::insertPrefetch(Addr addr)
{
    const std::uint64_t line = lineAddr(addr);
    const std::size_t set = setOf(line);
    if (lookup(set, line) != kNoWay)
        return false; // already resident
    fillAt(set, victim(set), line, false, true);
    return true;
}

void
Cache::flush()
{
    std::fill(tags_.begin(), tags_.end(), kNoTag);
    std::fill(stamps_.begin(), stamps_.end(), 0);
    std::fill(flags_.begin(), flags_.end(), 0);
    std::fill(fills_.begin(), fills_.end(), 0);
}

} // namespace mondrian
