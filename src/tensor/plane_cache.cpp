#include "tensor/plane_cache.h"

#include <atomic>
#include <map>
#include <tuple>

#include "common/math_util.h"
#include "common/mutex.h"
#include "common/static_operand.h"
#include "obs/obs.h"
#include "rns/modulus.h"

namespace neo {

namespace {

struct PlaneKey
{
    uintptr_t addr;
    u64 gen;
    size_t count;
    int planes;
    int plane_bits;

    bool
    operator<(const PlaneKey &o) const
    {
        return std::tie(addr, gen, count, planes, plane_bits) <
               std::tie(o.addr, o.gen, o.count, o.planes, o.plane_bits);
    }
};

struct WidthKey
{
    uintptr_t addr;
    u64 gen;
    size_t count;

    bool
    operator<(const WidthKey &o) const
    {
        return std::tie(addr, gen, count) <
               std::tie(o.addr, o.gen, o.count);
    }
};

struct Pow2Key
{
    int a_planes, a_bits, b_planes, b_bits;
    u64 q;

    bool
    operator<(const Pow2Key &o) const
    {
        return std::tie(a_planes, a_bits, b_planes, b_bits, q) <
               std::tie(o.a_planes, o.a_bits, o.b_planes, o.b_bits, o.q);
    }
};

void
note(bool hit)
{
    if (auto *r = obs::current())
        r->add(hit ? "gemm.plane_cache.hit" : "gemm.plane_cache.miss");
}

/// Payload bytes held by one cache entry (keys are negligible).
size_t
entry_bytes(const PlaneCache::F64Ptr &p)
{
    return p == nullptr ? 0 : p->size() * sizeof(double);
}

size_t
entry_bytes(const PlaneCache::I32Ptr &p)
{
    return p == nullptr ? 0 : p->size() * sizeof(i32);
}

size_t
entry_bytes(int)
{
    return sizeof(int);
}

size_t
entry_bytes(const PlaneCache::Pow2Ptr &p)
{
    return p == nullptr
               ? 0
               : (p->w.size() + p->w_shoup.size()) * sizeof(u64);
}

/// Publish the resident-size gauges (call after any mutation).
void
publish(size_t resident_bytes, size_t entry_count)
{
    if (auto *r = obs::current()) {
        r->set_gauge("plane_cache.resident_bytes",
                     static_cast<double>(resident_bytes));
        r->set_gauge("plane_cache.entries",
                     static_cast<double>(entry_count));
    }
}

void
note_evicted(u64 evicted, size_t freed_bytes)
{
    if (evicted == 0)
        return;
    if (auto *r = obs::current()) {
        r->add("gemm.plane_cache.evict", evicted);
        r->add_value("gemm.plane_cache.evicted_bytes",
                     static_cast<double>(freed_bytes));
    }
}

/// Drop other-generation entries for the same address range: once the
/// pin's generation moved, the old derived forms can never hit again.
/// Freed payload bytes and eviction count accumulate into the
/// out-params so the caller can settle the resident-size gauges.
template <class Map, class Key>
void
evict_stale(Map &m, const Key &key, size_t &freed_bytes, u64 &evicted)
{
    Key lo{};
    lo.addr = key.addr;
    for (auto it = m.lower_bound(lo);
         it != m.end() && it->first.addr == key.addr;) {
        if (it->first.gen != key.gen) {
            freed_bytes += entry_bytes(it->second);
            ++evicted;
            it = m.erase(it);
        } else {
            ++it;
        }
    }
}

} // namespace

struct PlaneCache::Impl
{
    SharedMutex mu;
    std::map<PlaneKey, F64Ptr> f64 NEO_GUARDED_BY(mu);
    std::map<PlaneKey, I32Ptr> i32 NEO_GUARDED_BY(mu);
    std::map<WidthKey, int> width NEO_GUARDED_BY(mu);
    std::map<Pow2Key, Pow2Ptr> pow2 NEO_GUARDED_BY(mu);
    std::atomic<bool> enabled{true};
    /// Payload bytes across all maps.
    size_t resident_bytes NEO_GUARDED_BY(mu) = 0;
    /// Entries across all maps.
    size_t entry_count NEO_GUARDED_BY(mu) = 0;
};

PlaneCache::PlaneCache() : impl_(std::make_unique<Impl>()) {}

PlaneCache &
PlaneCache::global()
{
    // Magic-static init; PlaneCache locks internally (Impl::mu).
    // neo-lint: allow(thread-unsafe-static)
    static PlaneCache c;
    return c;
}

void
PlaneCache::set_enabled(bool on)
{
    impl_->enabled.store(on, std::memory_order_release);
}

bool
PlaneCache::enabled() const
{
    return impl_->enabled.load(std::memory_order_acquire);
}

void
PlaneCache::clear()
{
    WriterLock lock(impl_->mu);
    impl_->f64.clear();
    impl_->i32.clear();
    impl_->width.clear();
    impl_->pow2.clear();
    impl_->resident_bytes = 0;
    impl_->entry_count = 0;
    publish(0, 0);
}

PlaneCache::F64Ptr
PlaneCache::f64_planes(const u64 *p, size_t count, int planes, int plane_bits)
{
    if (!enabled() || StaticOperands::instance().pins() == 0)
        return nullptr;
    const u64 gen = StaticOperands::instance().generation(p);
    if (gen == 0)
        return nullptr;
    const PlaneKey key{reinterpret_cast<uintptr_t>(p), gen, count, planes,
                       plane_bits};
    {
        ReaderLock lock(impl_->mu);
        auto it = impl_->f64.find(key);
        if (it != impl_->f64.end()) {
            note(true);
            return it->second;
        }
    }
    auto built = std::make_shared<std::vector<double>>(
        static_cast<size_t>(planes) * count);
    slice_to_f64(p, count, planes, plane_bits, built->data());
    WriterLock lock(impl_->mu);
    size_t freed = 0;
    u64 evicted = 0;
    evict_stale(impl_->f64, key, freed, evicted);
    auto [it, inserted] = impl_->f64.emplace(key, std::move(built));
    if (inserted) {
        impl_->resident_bytes += entry_bytes(it->second);
        ++impl_->entry_count;
    }
    impl_->resident_bytes -= freed;
    impl_->entry_count -= evicted;
    publish(impl_->resident_bytes, impl_->entry_count);
    note_evicted(evicted, freed);
    note(!inserted); // lost race to another thread = a hit after all
    return it->second;
}

PlaneCache::I32Ptr
PlaneCache::i32_planes(const u64 *p, size_t count, int planes, int plane_bits)
{
    if (!enabled() || StaticOperands::instance().pins() == 0)
        return nullptr;
    const u64 gen = StaticOperands::instance().generation(p);
    if (gen == 0)
        return nullptr;
    const PlaneKey key{reinterpret_cast<uintptr_t>(p), gen, count, planes,
                       plane_bits};
    {
        ReaderLock lock(impl_->mu);
        auto it = impl_->i32.find(key);
        if (it != impl_->i32.end()) {
            note(true);
            return it->second;
        }
    }
    auto built = std::make_shared<std::vector<i32>>(
        static_cast<size_t>(planes) * count);
    slice_to_i32(p, count, planes, plane_bits, built->data());
    WriterLock lock(impl_->mu);
    size_t freed = 0;
    u64 evicted = 0;
    evict_stale(impl_->i32, key, freed, evicted);
    auto [it, inserted] = impl_->i32.emplace(key, std::move(built));
    if (inserted) {
        impl_->resident_bytes += entry_bytes(it->second);
        ++impl_->entry_count;
    }
    impl_->resident_bytes -= freed;
    impl_->entry_count -= evicted;
    publish(impl_->resident_bytes, impl_->entry_count);
    note_evicted(evicted, freed);
    note(!inserted);
    return it->second;
}

int
PlaneCache::width_bits(const u64 *p, size_t count)
{
    if (!enabled() || StaticOperands::instance().pins() == 0)
        return -1;
    const u64 gen = StaticOperands::instance().generation(p);
    if (gen == 0)
        return -1;
    const WidthKey key{reinterpret_cast<uintptr_t>(p), gen, count};
    {
        ReaderLock lock(impl_->mu);
        auto it = impl_->width.find(key);
        if (it != impl_->width.end())
            return it->second;
    }
    u64 m = 0;
    for (size_t i = 0; i < count; ++i)
        m |= p[i];
    const int bits = bit_size(m);
    WriterLock lock(impl_->mu);
    size_t freed = 0;
    u64 evicted = 0;
    evict_stale(impl_->width, key, freed, evicted);
    const bool inserted = impl_->width.emplace(key, bits).second;
    if (inserted) {
        impl_->resident_bytes += entry_bytes(bits);
        ++impl_->entry_count;
    }
    impl_->resident_bytes -= freed;
    impl_->entry_count -= evicted;
    publish(impl_->resident_bytes, impl_->entry_count);
    note_evicted(evicted, freed);
    return bits;
}

PlaneCache::Pow2Ptr
PlaneCache::pow2(const SplitPlan &plan, u64 q_value)
{
    const Pow2Key key{plan.a_planes, plan.a_plane_bits, plan.b_planes,
                      plan.b_plane_bits, q_value};
    if (enabled()) {
        ReaderLock lock(impl_->mu);
        auto it = impl_->pow2.find(key);
        if (it != impl_->pow2.end())
            return it->second;
    }
    auto built = std::make_shared<Pow2Table>();
    for (int pa = 0; pa < plan.a_planes; ++pa)
        for (int pb = 0; pb < plan.b_planes; ++pb) {
            const u64 w = pow_mod(
                2, pa * plan.a_plane_bits + pb * plan.b_plane_bits, q_value);
            built->w.push_back(w);
            built->w_shoup.push_back(shoup_precompute(w, q_value));
        }
    built->lazy_terms = (1ULL << 63) / q_value;
    if (!enabled())
        return built;
    WriterLock lock(impl_->mu);
    auto [it, inserted] = impl_->pow2.emplace(key, std::move(built));
    if (inserted) {
        impl_->resident_bytes += entry_bytes(it->second);
        ++impl_->entry_count;
        publish(impl_->resident_bytes, impl_->entry_count);
    }
    return it->second;
}

} // namespace neo
