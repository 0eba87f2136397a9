/**
 * @file
 * The benchmark's workloads: seeded request streams over the public
 * ckks / boot / neo APIs. Each workload owns its context, keys and
 * pre-encrypted inputs; its constructor is the set-up the benchmark
 * times (including the warm-up requests that fill the key-switch
 * precomputation, plane cache and workspace arenas).
 *
 * Requests are issued in index order from 0. Request i is a function
 * of the seed and the requests before it in its block (klss_ops) or
 * training epoch (helr_hybrid), so issuing 0..k-1 again repeats the
 * same work exactly.
 */
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "ckks/encryptor.h"
#include "ckks/evaluator.h"
#include "ckks/keygen.h"

namespace hebench {

using neo::ckks::Ciphertext;
using neo::ckks::Complex;

/**
 * The benchmark's own timers around the public calls a workload
 * makes. The Evaluator invokes the KLSS key-switch hook on its calling
 * thread and the client calls run on the driving thread, so the
 * timers need no locking.
 */
struct Timers
{
    std::vector<double> keyswitch_s; ///< one entry per hook call
    double client_s = 0; ///< client encode / encrypt / decrypt_decode

    void
    clear()
    {
        keyswitch_s.clear();
        client_s = 0;
    }
};

class Workload
{
  public:
    virtual ~Workload() = default;
    Workload(const Workload &) = delete;
    Workload &operator=(const Workload &) = delete;

    /// Untimed per-request preparation (choosing the op, encrypting
    /// the request's input).
    virtual void prepare(uint64_t i) = 0;
    /// The request itself: the only timed call.
    virtual void request(uint64_t i) = 0;

    /// Result ciphertext of the last request.
    const Ciphertext &
    output() const
    {
        return out_;
    }
    /// Max abs slot error of @p ct, decrypted, against the last
    /// request's double-precision reference.
    double error(const Ciphertext &ct) const;
    /// Largest error a request may show and still count as correct.
    double
    tolerance() const
    {
        return tol_;
    }

    Timers timers;

  protected:
    /// @p key_seed is fixed per workload (the seed the repo's own
    /// example or test for the parameter set uses): the key's noise
    /// moves precision by about a bit, and that spread is no part of
    /// what the workload seed should vary.
    Workload(const neo::ckks::CkksParams &params, uint64_t seed,
             uint64_t key_seed, neo::ckks::KeySwitchMethod method,
             size_t sparse_h, double tolerance);

    /// Route every KLSS key switch through the Neo pipeline the way
    /// neo-prof ships it (fixed fp64_tcu engine, fusion and graph
    /// capture on), timed by the benchmark.
    void use_neo_pipeline();
    /// Time a client-side call into timers.client_s.
    template <class F>
    auto client(F &&f);
    /// Fresh ciphertext of @p slots at @p level (client side, untimed).
    Ciphertext encrypt(const std::vector<Complex> &slots, size_t level);

    const uint64_t seed_;
    neo::ckks::CkksContext ctx_;
    neo::ckks::KeyGenerator keygen_;
    neo::ckks::SecretKey sk_;
    neo::ckks::PublicKey pk_;
    neo::ckks::Encryptor enc_;
    neo::ckks::Decryptor dec_;
    neo::ckks::Evaluator ev_;
    const double tol_;

    Ciphertext out_;
    std::vector<Complex> expected_; ///< reference slots of out_
};

/// The workload names, in BENCHMARK.json order.
const std::vector<std::string> &workload_names();

/// Set up workload @p name at @p seed (context, keys, warm-up).
/// Throws std::invalid_argument for an unknown name.
std::unique_ptr<Workload> make_workload(const std::string &name,
                                        uint64_t seed);

} // namespace hebench
