#include "rns/primes.h"

#include <algorithm>

#include "common/check.h"
#include "common/math_util.h"
#include "common/random.h"

namespace neo {

bool
is_prime(u64 n)
{
    if (n < 2)
        return false;
    for (u64 p : {2ULL, 3ULL, 5ULL, 7ULL, 11ULL, 13ULL, 17ULL, 19ULL,
                  23ULL, 29ULL, 31ULL, 37ULL}) {
        if (n % p == 0)
            return n == p;
    }
    // Write n-1 = d * 2^r.
    u64 d = n - 1;
    int r = 0;
    while ((d & 1) == 0) {
        d >>= 1;
        ++r;
    }
    // Deterministic witness set for 64-bit integers (Sinclair).
    for (u64 a : {2ULL, 3ULL, 5ULL, 7ULL, 11ULL, 13ULL, 17ULL, 19ULL,
                  23ULL, 29ULL, 31ULL, 37ULL}) {
        u64 x = pow_mod(a % n, d, n);
        if (x == 1 || x == n - 1)
            continue;
        bool composite = true;
        for (int i = 1; i < r; ++i) {
            x = mul_mod(x, x, n);
            if (x == n - 1) {
                composite = false;
                break;
            }
        }
        if (composite)
            return false;
    }
    return true;
}

std::vector<u64>
generate_ntt_primes(int bit_size, int count, u64 ntt_size,
                    const std::vector<u64> &avoid)
{
    NEO_CHECK(bit_size >= 20 && bit_size <= 63, "bit_size out of range");
    NEO_CHECK(is_pow2(ntt_size), "ntt_size must be a power of two");
    const u64 m = 2 * ntt_size;
    std::vector<u64> out;
    out.reserve(count);
    // Largest candidate ≡ 1 (mod m) strictly below 2^bit_size.
    u64 hi = (1ULL << bit_size) - 1;
    u64 candidate = (hi / m) * m + 1;
    if (candidate > hi)
        candidate -= m;
    const u64 lo = 1ULL << (bit_size - 1);
    while (static_cast<int>(out.size()) < count && candidate > lo) {
        if (is_prime(candidate) &&
            std::find(avoid.begin(), avoid.end(), candidate) == avoid.end()) {
            out.push_back(candidate);
        }
        candidate -= m;
    }
    NEO_CHECK(static_cast<int>(out.size()) == count,
              "not enough NTT-friendly primes at requested bit size");
    return out;
}

u64
find_primitive_root(u64 q, u64 two_n)
{
    NEO_CHECK(is_pow2(two_n), "group order must be a power of two");
    NEO_CHECK((q - 1) % two_n == 0, "2n must divide q-1");
    const u64 cofactor = (q - 1) / two_n;
    Rng rng(q);
    for (int attempt = 0; attempt < 4096; ++attempt) {
        u64 x = 2 + rng.uniform(q - 3);
        u64 g = pow_mod(x, cofactor, q);
        // Order divides 2n (a power of two); order is exactly 2n iff
        // g^n = -1 mod q.
        if (two_n == 1)
            return 1;
        if (pow_mod(g, two_n / 2, q) == q - 1)
            return g;
    }
    NEO_ASSERT(false, "failed to find primitive root");
    return 0;
}

} // namespace neo
