#include "workloads.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <stdexcept>

#include "boot/bootstrapper.h"
#include "common/random.h"
#include "neo/pipeline.h"

namespace hebench {

using namespace neo;
using namespace neo::ckks;

namespace {

using Clock = std::chrono::steady_clock;

double
seconds_since(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Independent stream for (seed, tag, index): request i never depends
/// on how many draws earlier requests made.
Rng
stream(uint64_t seed, uint64_t tag, uint64_t i)
{
    return Rng(seed * 0x9e3779b97f4a7c15ULL ^ (tag << 56) ^ i);
}

std::vector<Complex>
random_slots(Rng &rng, size_t n, double bound, bool complex)
{
    std::vector<Complex> z(n);
    for (auto &x : z)
        x = Complex(bound * (2 * rng.uniform_real() - 1),
                    complex ? bound * (2 * rng.uniform_real() - 1) : 0);
    return z;
}

// -------------------------------------------------------------------
// klss_ops: HMult+rescale or HRotate through the Neo KLSS pipeline.
// -------------------------------------------------------------------

class KlssOps final : public Workload
{
  public:
    static constexpr i64 kSteps[] = {1, 2, 4, 8};

    explicit KlssOps(uint64_t seed)
        : Workload(CkksParams::test_params(1024, 9, 3), seed, 17,
                   KeySwitchMethod::klss, 0, kTolerance),
          keys_(keygen_.eval_key_bundle(
              sk_, {std::begin(kSteps), std::end(kSteps)}, false, true))
    {
        use_neo_pipeline();
        new_block(0);
        // Warm-up: every (level, key) pair the stream draws, so no
        // timed request pays a first-use precomputation.
        for (size_t l = 1; l <= ctx_.max_level(); ++l) {
            run({false, l, 0});
            for (i64 s : kSteps)
                run({true, l, s});
        }
    }

    void
    prepare(uint64_t i) override
    {
        if (i % block_.size() == 0)
            new_block(i / block_.size());
        op_ = block_[i % block_.size()];
        const auto &a = a_[op_.level - 1];
        const auto &b = b_[op_.level - 1];
        expected_.resize(a.size());
        for (size_t j = 0; j < a.size(); ++j)
            expected_[j] =
                op_.rotate ? a[(j + static_cast<size_t>(op_.step)) % a.size()]
                           : a[j] * b[j];
    }

    void
    request(uint64_t) override
    {
        run(op_);
    }

  private:
    // The worst request over ten seeds keeps about 2^-20 of error;
    // 2^-10 leaves a wide margin and still rejects a wrong key.
    static constexpr double kTolerance = 1.0 / 1024;

    struct Op
    {
        bool rotate;
        size_t level;
        i64 step;
    };

    /// Block @p b of the stream: fresh inputs at every level and, per
    /// level, one HMult+rescale and one HRotate for each step, in
    /// seeded order. Whole blocks keep the mix at exactly 50/50 over
    /// levels and keys, so runs differ in order and data, not mix.
    void
    new_block(uint64_t b)
    {
        const size_t slots = ctx_.encoder().slot_count();
        a_.clear();
        b_.clear();
        ca_.clear();
        cb_.clear();
        block_.clear();
        for (size_t l = 1; l <= ctx_.max_level(); ++l) {
            Rng rng = stream(seed_, 1, b * 16 + l);
            a_.push_back(random_slots(rng, slots, 1.0, true));
            b_.push_back(random_slots(rng, slots, 1.0, true));
            ca_.push_back(encrypt(a_.back(), l));
            cb_.push_back(encrypt(b_.back(), l));
            for (i64 s : kSteps) {
                block_.push_back({false, l, 0});
                block_.push_back({true, l, s});
            }
        }
        Rng rng = stream(seed_, 2, b);
        for (size_t j = block_.size() - 1; j > 0; --j)
            std::swap(block_[j], block_[rng.uniform(j + 1)]);
    }

    void
    run(const Op &op)
    {
        const Ciphertext &a = ca_[op.level - 1];
        out_ = op.rotate
                   ? ev_.rotate(a, op.step, keys_)
                   : ev_.rescale(ev_.mul(a, cb_[op.level - 1], keys_));
    }

    EvalKeyBundle keys_;
    std::vector<std::vector<Complex>> a_, b_;
    std::vector<Ciphertext> ca_, cb_;
    std::vector<Op> block_;
    Op op_{};
};

// -------------------------------------------------------------------
// klss_bootstrap: dense CtS/StC bootstrapping on the KLSS pipeline.
// -------------------------------------------------------------------

class KlssBootstrap final : public Workload
{
  public:
    explicit KlssBootstrap(uint64_t seed)
        : Workload(CkksParams::test_params(256, 14, 3), seed, 11,
                   KeySwitchMethod::klss, 8, 2e-3),
          keys_(keygen_.eval_key_bundle(
              sk_, boot::Bootstrapper::required_rotations(ctx_), true,
              true)),
          boot_(ctx_, ev_, keys_)
    {
        use_neo_pipeline();
        prepare(~uint64_t{0});
        request(0);
    }

    void
    prepare(uint64_t i) override
    {
        Rng rng = stream(seed_, 3, i);
        // |m| <= 0.04 keeps the sine linearisation sharp (boot_test).
        expected_ = random_slots(rng, ctx_.encoder().slot_count(), 0.04,
                                 false);
        in_ = encrypt(expected_, 0);
    }

    void
    request(uint64_t) override
    {
        out_ = boot_.bootstrap(in_);
    }

  private:
    EvalKeyBundle keys_;
    boot::Bootstrapper boot_;
    Ciphertext in_;
};

// -------------------------------------------------------------------
// helr_hybrid: encrypted logistic-regression training iterations on
// the default hybrid evaluator (examples/encrypted_logreg).
// -------------------------------------------------------------------

class HelrHybrid final : public Workload
{
  public:
    static constexpr size_t kFeatures = 2, kSamples = 64, kBlock = 4;
    /// Iterations per training run before the weights restart.
    static constexpr uint64_t kEpoch = 6;

    explicit HelrHybrid(uint64_t seed)
        : Workload(CkksParams::test_params(1024, 9, 2), seed, 7,
                   KeySwitchMethod::hybrid, 0, kTolerance),
          keys_(keygen_.eval_key_bundle(sk_, {1, 2})),
          slots_(ctx_.encoder().slot_count())
    {
        // Two Gaussian-ish blobs, labels ±1, as in the example: sample
        // i's features in slots [i*kBlock, i*kBlock+kFeatures), its
        // label in all kBlock slots.
        Rng rng = stream(seed, 4, 0);
        x_.assign(slots_, 0.0);
        y_.assign(slots_, 0.0);
        for (size_t i = 0; i < kSamples; ++i) {
            const double label = i % 2 == 0 ? 1.0 : -1.0;
            for (size_t f = 0; f < kFeatures; ++f)
                x_[i * kBlock + f] =
                    0.35 * label + 0.15 * (2 * rng.uniform_real() - 1);
            for (size_t f = 0; f < kBlock; ++f)
                y_[i * kBlock + f] = label;
        }
        cx_ = encrypt({x_.begin(), x_.end()}, ctx_.max_level());
        cy_ = encrypt({y_.begin(), y_.end()}, ctx_.max_level());
        for (uint64_t i = 0; i < 2; ++i) {
            prepare(i);
            request(i);
        }
    }

    void
    prepare(uint64_t req) override
    {
        if (req % kEpoch == 0) {
            Rng rng = stream(seed_, 5, req / kEpoch);
            w_.assign(kFeatures, 0);
            for (auto &w : w_)
                w = 0.5 * (2 * rng.uniform_real() - 1);
        }
        // The circuit's own slot arithmetic in double precision:
        // rotate-and-sum over kBlock slots (which reaches into the next
        // block for all but a block's first slot), then the degree-3
        // sigmoid-gradient polynomial times y, times x.
        std::vector<double> xw(slots_, 0.0);
        for (size_t i = 0; i < kSamples; ++i)
            for (size_t f = 0; f < kFeatures; ++f)
                xw[i * kBlock + f] = x_[i * kBlock + f] * w_[f];
        expected_.assign(slots_, Complex(0, 0));
        for (size_t j = 0; j < slots_; ++j) {
            double z = 0;
            for (size_t k = 0; k < kBlock; ++k)
                z += xw[(j + k) % slots_];
            const double yz = y_[j] * z;
            const double g = y_[j] * (0.5 - 0.197 * yz + 0.004 * yz * yz * yz);
            expected_[j] = g * x_[j];
        }
    }

    void request(uint64_t) override;

  private:
    // Gradient slots are O(0.25); the worst iteration over ten seeds
    // keeps about 2^-13 of error, so 2^-10 leaves an 8x margin.
    static constexpr double kTolerance = 1.0 / 1024;

    Ciphertext block_sum(Ciphertext ct) const;

    EvalKeyBundle keys_;
    const size_t slots_;
    std::vector<double> x_, y_, w_; ///< slot data, weights
    Ciphertext cx_, cy_;
};

Ciphertext
HelrHybrid::block_sum(Ciphertext ct) const
{
    for (size_t step = 1; step < kBlock; step <<= 1)
        ct = ev_.add(ct, ev_.rotate(ct, static_cast<i64>(step), keys_));
    return ct;
}

} // namespace

template <class F>
auto
Workload::client(F &&f)
{
    const auto t0 = Clock::now();
    auto r = f();
    timers.client_s += seconds_since(t0);
    return r;
}

void
HelrHybrid::request(uint64_t)
{
    const auto &params = ctx_.params();
    std::vector<Complex> wslots(slots_, Complex(0, 0));
    for (size_t i = 0; i < kSamples; ++i)
        for (size_t f = 0; f < kFeatures; ++f)
            wslots[i * kBlock + f] = w_[f];
    const Plaintext pw =
        client([&] { return ctx_.encode(wslots, cx_.level); });
    Ciphertext z = block_sum(ev_.rescale(ev_.mul_plain(cx_, pw)));

    const Ciphertext ylev = ev_.mod_switch_to(cy_, z.level);
    const Ciphertext yz = ev_.rescale(ev_.mul(z, ylev, keys_));
    const Ciphertext yz2 = ev_.rescale(ev_.mul(yz, yz, keys_));
    const Ciphertext yz3 = ev_.rescale(
        ev_.mul(yz2, ev_.mod_switch_to(yz, yz2.level), keys_));
    const std::vector<Complex> c1(slots_, Complex(-0.197, 0));
    const std::vector<Complex> c3(slots_, Complex(0.004, 0));
    const Ciphertext t3 = ev_.rescale(
        ev_.mul_plain(yz3, ctx_.encode(c3, yz3.level, params.delta())));
    // Encode the linear coefficient at the scale that lands t1 on t3's
    // scale after one rescale.
    const double q_dropped =
        static_cast<double>(ctx_.q_basis()[yz.level].value());
    const double align_scale = t3.scale * q_dropped / yz.scale;
    Ciphertext t1 = ev_.rescale(
        ev_.mul_plain(yz, ctx_.encode(c1, yz.level, align_scale)));
    t1 = ev_.mod_switch_to(t1, t3.level);
    t1.scale = t3.scale;
    Ciphertext g = ev_.add(t1, t3);
    const std::vector<Complex> half(slots_, Complex(0.5, 0));
    g = ev_.add_plain(g, ctx_.encode(half, g.level, g.scale));
    g = ev_.rescale(ev_.mul(g, ev_.mod_switch_to(ylev, g.level), keys_));
    out_ = ev_.rescale(ev_.mul(g, ev_.mod_switch_to(cx_, g.level), keys_));

    // Client: decrypt the per-slot gradient and take the step.
    const auto grad = client([&] { return dec_.decrypt_decode(out_); });
    for (size_t f = 0; f < kFeatures; ++f) {
        double gw = 0;
        for (size_t i = 0; i < kSamples; ++i)
            gw += grad[i * kBlock + f].real();
        w_[f] += gw / static_cast<double>(kSamples);
    }
}

Workload::Workload(const CkksParams &params, uint64_t seed,
                   uint64_t key_seed, KeySwitchMethod method,
                   size_t sparse_h, double tolerance)
    : seed_(seed), ctx_(params), keygen_(ctx_, key_seed),
      sk_(sparse_h > 0 ? keygen_.secret_key_sparse(sparse_h)
                       : keygen_.secret_key()),
      pk_(keygen_.public_key(sk_)), enc_(ctx_, seed + 2),
      dec_(ctx_, sk_, keygen_), ev_(ctx_, method), tol_(tolerance)
{
}

void
Workload::use_neo_pipeline()
{
    auto fn = klss_keyswitch_fn(
        ExecPolicy::fixed(EngineId::fp64_tcu, /*fuse=*/true,
                          /*graph=*/true));
    ev_.set_klss_keyswitch([this, fn](const RnsPoly &d2,
                                      const KlssEvalKey &evk,
                                      const CkksContext &ctx) {
        const auto t0 = Clock::now();
        auto r = fn(d2, evk, ctx);
        timers.keyswitch_s.push_back(seconds_since(t0));
        return r;
    });
}

Ciphertext
Workload::encrypt(const std::vector<Complex> &slots, size_t level)
{
    return enc_.encrypt(ctx_.encode(slots, level), pk_);
}

double
Workload::error(const Ciphertext &ct) const
{
    const auto got = dec_.decrypt_decode(ct);
    double e = 0;
    for (size_t j = 0; j < expected_.size(); ++j) {
        const double d = std::abs(got[j] - expected_[j]);
        if (std::isnan(d))
            return d; // must fail the check, not vanish in a max()
        e = std::max(e, d);
    }
    return e;
}

const std::vector<std::string> &
workload_names()
{
    static const std::vector<std::string> names = {
        "klss_ops", "klss_bootstrap", "helr_hybrid"};
    return names;
}

std::unique_ptr<Workload>
make_workload(const std::string &name, uint64_t seed)
{
    if (name == "klss_ops")
        return std::make_unique<KlssOps>(seed);
    if (name == "klss_bootstrap")
        return std::make_unique<KlssBootstrap>(seed);
    if (name == "helr_hybrid")
        return std::make_unique<HelrHybrid>(seed);
    throw std::invalid_argument("unknown workload '" + name + "'");
}

} // namespace hebench
