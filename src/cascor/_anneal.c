/* Sequential Metropolis anneal of every read of one sampling run.
 *
 * Built on first use by cascor.samplers and called through ctypes.  Read r
 * draws from the stream numpy's Generator(PCG64(SeedSequence((seed, r))))
 * would give: its n initial spins come from the top bits of consecutive
 * 32-bit halves (low half first), as rng.integers(0, 2, size=n) takes them,
 * and every proposal then consumes one next_double.  Spins therefore match
 * the numpy reference loop bit for bit wherever the acceptance probabilities
 * do (see the samplers module docstring).
 */
#include <math.h>
#include <stdint.h>

typedef __uint128_t u128;

/* numpy's SeedSequence: a pool of four 32-bit words, hashed and mixed. */
#define POOL 4
#define INIT_A 0x43b0d7e5u
#define MULT_A 0x931e8875u
#define INIT_B 0x8b51f9ddu
#define MULT_B 0x58f38dedu
#define MIX_MULT_L 0xca01f9ddu
#define MIX_MULT_R 0x4973f715u
#define XSHIFT 16

#define PCG_MULT (((u128)2549297995355413924ULL << 64) | 4865540595714422341ULL)

static uint32_t hashmix(uint32_t value, uint32_t *hash_const)
{
    value ^= *hash_const;
    *hash_const *= MULT_A;
    value *= *hash_const;
    return value ^ (value >> XSHIFT);
}

static uint32_t mix(uint32_t x, uint32_t y)
{
    uint32_t result = MIX_MULT_L * x - MIX_MULT_R * y;
    return result ^ (result >> XSHIFT);
}

typedef struct {
    u128 state, inc;
} pcg64;

static inline uint64_t pcg_next(pcg64 *g)
{
    g->state = g->state * PCG_MULT + g->inc;
    uint64_t x = (uint64_t)(g->state >> 64) ^ (uint64_t)g->state;
    unsigned rot = (unsigned)(g->state >> 122);
    return (x >> rot) | (x << ((-rot) & 63));
}

static inline double next_double(pcg64 *g)
{
    return (double)(pcg_next(g) >> 11) * (1.0 / 9007199254740992.0);
}

/* PCG64 seeded from SeedSequence(entropy) with entropy = seed words, then r's words. */
static void seed_stream(pcg64 *g, const uint32_t *seed_words, int64_t seed_len, uint64_t r)
{
    const uint32_t r_words[2] = {(uint32_t)r, (uint32_t)(r >> 32)};
    const int64_t len = seed_len + (r_words[1] ? 2 : 1);
#define WORD(k) ((k) < seed_len ? seed_words[k] : r_words[(k) - seed_len])
    uint32_t pool[POOL], hash_a = INIT_A;
    for (int64_t i = 0; i < POOL; i++)
        pool[i] = hashmix(i < len ? WORD(i) : 0, &hash_a);
    for (int src = 0; src < POOL; src++)
        for (int dst = 0; dst < POOL; dst++)
            if (src != dst)
                pool[dst] = mix(pool[dst], hashmix(pool[src], &hash_a));
    for (int64_t src = POOL; src < len; src++)
        for (int dst = 0; dst < POOL; dst++)
            pool[dst] = mix(pool[dst], hashmix(WORD(src), &hash_a));
#undef WORD

    /* generate_state(4, uint64): eight words cycling over the pool, read as
     * little-endian uint64 pairs (state high, state low, inc high, inc low). */
    uint32_t w[8], hash_b = INIT_B;
    for (int i = 0; i < 8; i++) {
        uint32_t v = pool[i % POOL] ^ hash_b;
        hash_b *= MULT_B;
        v *= hash_b;
        w[i] = v ^ (v >> XSHIFT);
    }
    uint64_t words[4];
    for (int i = 0; i < 4; i++)
        words[i] = (uint64_t)w[2 * i] | (uint64_t)w[2 * i + 1] << 32;
    const u128 init_state = (u128)words[0] << 64 | words[1];
    const u128 init_seq = (u128)words[2] << 64 | words[3];
    g->state = 0;
    g->inc = init_seq << 1 | 1;
    pcg_next(g);
    g->state += init_state;
    pcg_next(g);
}

/* Anneal reads [0, reads) of an n-spin model and write their final spins,
 * read-major, to out (reads * n int8).
 *
 * Spin i's neighbours are indices[indptr[i] .. indptr[i+1]) with couplings
 * values[...]; h holds the fields.  Sweep t runs at inverse temperature
 * two_betas[t] / 2.  A flip of spin i with v = s_i * local is accepted when
 * v >= 0 or u < p, where p = table[t * table_width - v] if table_width > 0
 * (integral models: v is an exact integer and the table holds
 * exp(-two_betas[t] * k)), and p = exp(two_betas[t] * v) otherwise.
 * spins is scratch space for n doubles. */
void cascor_anneal(const uint32_t *seed_words, int64_t seed_len, int64_t reads, int64_t n,
                   int64_t sweeps, const int64_t *indptr, const int64_t *indices,
                   const double *values, const double *h, const double *two_betas,
                   const double *table, int64_t table_width, double *spins, int8_t *out)
{
    for (int64_t r = 0; r < reads; r++) {
        pcg64 g;
        seed_stream(&g, seed_words, seed_len, (uint64_t)r);
        uint64_t word = 0;
        for (int64_t k = 0; k < n; k++) {
            uint32_t half;
            if (k & 1) {
                half = (uint32_t)(word >> 32);
            } else {
                word = pcg_next(&g);
                half = (uint32_t)word;
            }
            spins[k] = (half >> 31) ? 1.0 : -1.0;
        }
        for (int64_t t = 0; t < sweeps; t++) {
            const double two_beta = two_betas[t];
            const double *row = table + t * table_width;
            for (int64_t i = 0; i < n; i++) {
                const double u = next_double(&g);
                double local = 0.0;
                for (int64_t k = indptr[i]; k < indptr[i + 1]; k++)
                    local += values[k] * spins[indices[k]];
                local += h[i];
                const double v = spins[i] * local;
                if (v >= 0.0 || u < (table_width ? row[(int64_t)-v] : exp(two_beta * v)))
                    spins[i] = -spins[i];
            }
        }
        for (int64_t k = 0; k < n; k++)
            out[r * n + k] = spins[k] > 0.0 ? 1 : -1;
    }
}
