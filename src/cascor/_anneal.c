/* Sequential Metropolis anneal of every read of one sampling run, the
 * mixed-SAT instance draw and solution count, and the sample file codec.
 *
 * Built on first use by cascor._native and called through ctypes.  Read r
 * draws from the stream numpy's Generator(PCG64(SeedSequence((seed, r))))
 * would give: its n initial spins come from the top bits of consecutive
 * 32-bit halves (low half first), as rng.integers(0, 2, size=n) takes them,
 * and every proposal then consumes one next_double.  Spins therefore match
 * the numpy reference loop bit for bit wherever the acceptance probabilities
 * do (see the samplers module docstring).
 *
 * There are two loops.  Integral models (cascor_anneal_int) keep integer
 * local fields: summed once per read, then updated along the flipped spin's
 * neighbour list on each accepted flip.  Integer sums are exact in any order,
 * so every proposal sees the field a row sum would give, and acceptance is
 * one lookup in a table of probabilities.  Float models (cascor_anneal_float)
 * sum the neighbour row at every proposal, so their rounding stays that of a
 * row sum; integral models whose table would be too large run this loop too.
 *
 * On x86-64 hosts with AVX-512F, DQ, VL, IFMA and VBMI, cascor_anneal_int
 * anneals sixteen reads at once, one per 32-bit lane of a 512-bit vector of
 * local fields; elsewhere it runs the scalar integral loop, which stays exported
 * as cascor_anneal_int_scalar.  Each lane draws only its own read's stream and
 * makes that read's proposals in the scalar order, so the lane loop's spins
 * are the scalar loop's bit for bit.  The float loop is scalar everywhere.
 * The lane loop keeps its per-read work small:
 *
 * - Fields.  A table row has an entry for every |v| up to the largest |local|,
 *   and samplers caps the table at 2^17 entries, so every field, h, J and 2 J
 *   fits int32 and one register holds a spin's field in all sixteen reads.
 *   The fields start at a 64-byte boundary of the scratch, so each spin's
 *   sixteen take one cache line.  An accepted flip moves each neighbour's
 *   field with one masked add and one masked subtract for the sixteen reads.
 * - Streams.  Each lane's 128-bit PCG64 state and increment are held as limbs
 *   of 52, 52 and 24 bits, and a step multiplies them with IFMA's 52-bit
 *   multiply-adds (pcg_next_x8), for lanes 0-7 and 8-15 in turn.  VBMI's
 *   byte-wise multishift moves the limbs' bits for the carries, the output
 *   word and its rotate count, off the vector shift unit.
 * - Acceptance in 32 bits.  A proposal is accepted when its word's top 53 bits
 *   m are below the row's entry E.  One 32-bit compare for the sixteen lanes
 *   sets each lane's top 32 bits, m >> 21, against its entry's,
 *   min(E >> 21, 2^32 - 1), taken once per call from the table into the
 *   scratch.  That decides every lane whose bits differ; when a lane's are
 *   equal, about once in 2^28 proposals, every lane takes the exact 53-bit
 *   test (anneal_int_lanes).
 * - Register rows.  When a row has at most 32 entries, it loads the 32-bit
 *   row into two vector registers once per sweep and looks each lane's entry
 *   up with one two-register permute; a wider row is gathered from memory at
 *   every proposal.
 * - Spins in.  Each lane's stream is seeded by seed_stream, as in the scalar
 *   loops, and the sixteen reads' initial spins are drawn straight into the
 *   lane masks.
 * - Spins out.  It writes each read's final spins out of the lane masks
 *   eight at a time, one 64-bit word of int8 spins per eight masks.
 *
 * The same library holds the mixed-SAT draw and solution count that
 * sat.generate_mixed_sat screens instances with, cascor_draw_instance (on
 * the stream seed_stream gives the attempt) and cascor_count_solutions, and
 * the sample file codec, cascor_sample_lines and cascor_sample_scan (at the
 * end of this file), so there is one source file and one build.
 */
#include <math.h>
#include <stdint.h>
#include <string.h>
#if defined(__x86_64__)
#include <immintrin.h>
#endif

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

/* A uniform double u = m / 2^53 from the top 53 bits m of the next word. */
static inline double unit_of(uint64_t m)
{
    return (double)m * (1.0 / 9007199254740992.0);
}

static inline double next_double(pcg64 *g)
{
    return unit_of(pcg_next(g) >> 11);
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

/* Seed read r's stream and draw its n initial spins into s. */
static void start_read(pcg64 *g, const uint32_t *seed_words, int64_t seed_len, int64_t r,
                       int64_t n, int8_t *s)
{
    seed_stream(g, seed_words, seed_len, (uint64_t)r);
    uint64_t word = 0;
    for (int64_t k = 0; k < n; k++) {
        uint32_t half;
        if (k & 1) {
            half = (uint32_t)(word >> 32);
        } else {
            word = pcg_next(g);
            half = (uint32_t)word;
        }
        s[k] = (half >> 31) ? 1 : -1;
    }
}

/* Both loops anneal reads [0, reads) of an n-spin model and write their
 * final spins, read-major, to out (reads * n int8).  Spin i's neighbours are
 * indices[indptr[i] .. indptr[i+1]) with couplings values[...]; h holds the
 * fields.  Sweep t runs at inverse temperature two_betas[t] / 2, and a flip
 * of spin i with v = s_i * local is accepted when u < p(v), with p(v) = 1
 * for v >= 0 (u < 1 always holds) and exp(two_betas[t] * v) otherwise.
 * Both anneal the int8 spins of the read in place in out; the float loop's
 * products take a spin promoted to double, which is exactly +1.0 or -1.0. */
void cascor_anneal_float(const uint32_t *seed_words, int64_t seed_len, int64_t reads,
                         int64_t n, int64_t sweeps, const int64_t *indptr,
                         const int64_t *indices, const double *values, const double *h,
                         const double *two_betas, int8_t *out)
{
    for (int64_t r = 0; r < reads; r++) {
        pcg64 g;
        int8_t *s = out + r * n;
        start_read(&g, seed_words, seed_len, r, n, s);
        for (int64_t t = 0; t < sweeps; t++) {
            const double two_beta = two_betas[t];
            for (int64_t i = 0; i < n; i++) {
                const double u = next_double(&g);
                double local = 0.0;
                for (int64_t k = indptr[i]; k < indptr[i + 1]; k++)
                    local += values[k] * s[indices[k]];
                local += h[i];
                const double v = s[i] * local;
                if (v >= 0.0 || u < exp(two_beta * v))
                    s[i] = -s[i];
            }
        }
    }
}

/* The integral loop: values and h are integers whose absolute sum is at most
 * 2^53, so every local field fits in int64.  The flip is accepted when the
 * uniform's 53-bit integer m = pcg_next >> 11 is below
 * table[t * table_width + (v < 0 ? -v : 0)], whose row t holds
 * ceil(exp(-two_betas[t] * k) * 2^53) for k < table_width, with table_width
 * above every |v| (entry 0 is 2^53).  That is u < p(v) exactly, since
 * u = m / 2^53.  fields is scratch space for n int64. */
void cascor_anneal_int_scalar(const uint32_t *restrict seed_words, int64_t seed_len,
                              int64_t reads, int64_t n, int64_t sweeps,
                              const int64_t *restrict indptr, const int64_t *restrict indices,
                              const int64_t *restrict values, const int64_t *restrict h,
                              const uint64_t *restrict table, int64_t table_width,
                              int64_t *restrict fields, int8_t *restrict out)
{
    for (int64_t r = 0; r < reads; r++) {
        pcg64 g;
        int8_t *s = out + r * n;
        start_read(&g, seed_words, seed_len, r, n, s);
        for (int64_t i = 0; i < n; i++) {
            int64_t local = h[i];
            for (int64_t k = indptr[i]; k < indptr[i + 1]; k++)
                local += values[k] * s[indices[k]];
            fields[i] = local;
        }
        for (int64_t t = 0; t < sweeps; t++) {
            const uint64_t *row = table + t * table_width;
            for (int64_t i = 0; i < n; i++) {
                const int64_t v = s[i] * fields[i];
                if ((pcg_next(&g) >> 11) < row[v < 0 ? -v : 0]) {
                    s[i] = -s[i];
                    const int64_t step = 2 * s[i];  /* s_i moved by 2 s_i(new) */
                    for (int64_t k = indptr[i]; k < indptr[i + 1]; k++)
                        fields[indices[k]] += step * values[k];
                }
            }
        }
    }
}

#if defined(__x86_64__)
#define LANES 16
#define LANE_TARGET \
    __attribute__((target("avx512f,avx512dq,avx512vl,avx512ifma,avx512vbmi")))
#define M52 ((1ULL << 52) - 1)

/* Eight PCG64 streams, one per 64-bit lane, each lane's state and increment
 * split into limbs of 52, 52 and 24 bits: s0 s1 s2 and c0 c1 c2. */
typedef struct {
    __m512i s0, s1, s2, c0, c1, c2;
} pcg64x8;

/* Byte j of a multishift control is the bit offset, within a 64-bit lane, of
 * the eight bits (wrapping past bit 63) that VBMI's vpmultishiftqb puts in byte
 * j of that lane.  A fresh limb 0 is below 2^53, limb 1 below 2^54 and limb 2
 * below 2^55 (see pcg_next_x8), so offset 56 reads a zero byte of each. */
#define BITS_52_UP 0x3838383838383834ULL  /* limb >> 52 */
#define ROR_12 0x043c342c241c140cULL      /* ror(limb, 12) */
#define SHL_40 0x1008003838383838ULL      /* limb << 40 */
#define BITS_18_UP 18ULL                  /* bits 18-23 at bits 0-5, the rest unused */

/* pcg_next in every lane.  Nine 52-bit multiply-adds, one per partial product
 * of state * mult below bit 128, accumulate onto the increment's limbs; two
 * adds then carry limb 0 into limb 1 and limb 1 into limb 2.  A limb keeps its
 * carry bits: the multiply-adds read only its low 52 bits, and bits 24 and up
 * of limb 2 weigh 2^128 or more.  Each limb is the increment's limb, below
 * 2^52, plus at most five terms below 2^52 and a carry, hence the bounds that
 * the multishift controls rely on. */
LANE_TARGET static inline __m512i pcg_next_x8(pcg64x8 *g)
{
    const __m512i m0 = _mm512_set1_epi64((long long)((uint64_t)PCG_MULT & M52));
    const __m512i m1 = _mm512_set1_epi64((long long)((uint64_t)(PCG_MULT >> 52) & M52));
    const __m512i m2 = _mm512_set1_epi64((long long)(uint64_t)(PCG_MULT >> 104));
    const __m512i carry = _mm512_set1_epi64((long long)BITS_52_UP);
    __m512i s0 = _mm512_madd52lo_epu64(g->c0, g->s0, m0);
    __m512i s1 = _mm512_madd52hi_epu64(g->c1, g->s0, m0);
    __m512i s2 = _mm512_madd52hi_epu64(g->c2, g->s0, m1);
    s1 = _mm512_madd52lo_epu64(s1, g->s0, m1);
    s2 = _mm512_madd52lo_epu64(s2, g->s0, m2);
    s1 = _mm512_madd52lo_epu64(s1, g->s1, m0);
    s2 = _mm512_madd52hi_epu64(s2, g->s1, m0);
    s2 = _mm512_madd52lo_epu64(s2, g->s1, m1);
    s2 = _mm512_madd52lo_epu64(s2, g->s2, m0);
    s1 = _mm512_add_epi64(s1, _mm512_multishift_epi64_epi8(carry, s0));
    s2 = _mm512_add_epi64(s2, _mm512_multishift_epi64_epi8(carry, s1));
    g->s0 = s0, g->s1 = s1, g->s2 = s2;
    /* The word is lo ^ hi, lo = s0 bits 0-51 | s1 bits 0-11 << 52 and hi = s1
     * bits 12-51 | s2 << 40.  ror(s1, 12) holds s1's bits 12-51 at 0-39 and its
     * bits 0-11 at 52-63, so lo ^ hi = (s0 & M52) ^ s2 << 40 ^ (ror(s1, 12)
     * outside bits 40-51).  Ternary logic 0x6a is a & b ^ c, and 0xb4 a ^ b & ~c. */
    const __m512i low_and_top =
        _mm512_ternarylogic_epi64(s0, _mm512_set1_epi64(M52),
                                  _mm512_multishift_epi64_epi8(_mm512_set1_epi64(SHL_40), s2),
                                  0x6a);
    const __m512i word = _mm512_ternarylogic_epi64(
        low_and_top, _mm512_multishift_epi64_epi8(_mm512_set1_epi64(ROR_12), s1),
        _mm512_set1_epi64(0xfffULL << 40), 0xb4);
    /* rotated by state >> 122, s2's bits 18-23: vprorvq reads a count's low 6 bits */
    return _mm512_rorv_epi64(word,
                             _mm512_multishift_epi64_epi8(_mm512_set1_epi64(BITS_18_UP), s2));
}

/* One mask over sixteen lanes from masks over lanes 0-7 and lanes 8-15. */
static inline __mmask16 join_lanes(__mmask8 low, __mmask8 high)
{
    return (__mmask16)(low | high << 8);
}

/* Lanes whose words' 53-bit integers m = word >> 11 fall below their entries
 * row[index[l]]: lanes 0-7 from low's words and 8-15 from high's. */
LANE_TARGET static inline __mmask16 below_entries(const uint64_t *row, __m512i index,
                                                  __m512i low, __m512i high)
{
    const __m512i low_entries = _mm512_i32gather_epi64(_mm512_castsi512_si256(index), row, 8);
    const __m512i high_entries =
        _mm512_i32gather_epi64(_mm512_extracti64x4_epi64(index, 1), row, 8);
    return join_lanes(_mm512_cmplt_epu64_mask(_mm512_srli_epi64(low, 11), low_entries),
                      _mm512_cmplt_epu64_mask(_mm512_srli_epi64(high, 11), high_entries));
}

/* Every sweep of one lane group.  With regs 2, each sweep's row of tops, of at
 * most 32 entries, is held in two registers and each lane's entry is looked up
 * with one permute; with regs 0 it is gathered from tops.  Inlined once per
 * value of regs. */
LANE_TARGET static inline __attribute__((always_inline)) void sweep_lanes(
    int regs, pcg64x8 *g, int64_t n, int64_t sweeps, const int64_t *restrict indptr,
    const int64_t *restrict indices, const int64_t *restrict values,
    const uint64_t *restrict table, const uint32_t *restrict tops, int64_t table_width,
    int32_t *restrict fields, uint16_t *restrict up)
{
    const __m512i zero = _mm512_setzero_si512();
    /* the high 32-bit half of every 64-bit lane of two vectors, the first's first */
    const __m512i high_halves = _mm512_set_epi32(31, 29, 27, 25, 23, 21, 19, 17, 15, 13, 11,
                                                 9, 7, 5, 3, 1);
    for (int64_t t = 0; t < sweeps; t++) {
        const uint64_t *row = table + t * table_width;
        const uint32_t *top_row = tops + t * table_width;
        __m512i entries[2];
        for (int b = 0; b < regs; b++) {
            const int64_t left = table_width - 16 * b;  /* entries from register b on */
            entries[b] =
                left <= 0 ? zero
                          : _mm512_maskz_loadu_epi32(
                                left >= 16 ? 0xffff : (__mmask16)((1u << left) - 1),
                                top_row + 16 * b);
        }
        for (int64_t i = 0; i < n; i++) {
            const __m512i low = pcg_next_x8(&g[0]), high = pcg_next_x8(&g[1]);
            /* each lane's m >> 21, the top 32 bits of its word */
            const __m512i top = _mm512_permutex2var_epi32(low, high_halves, high);
            const __m512i local = _mm512_load_si512(fields + LANES * i);
            /* -v = -s_i * local; the table index is max(-v, 0) */
            const __m512i neg_v = _mm512_mask_sub_epi32(local, up[i], zero, local);
            const __m512i index = _mm512_max_epi32(neg_v, zero);
            /* index bits 0-4 pick among the 32 entries of the two registers */
            const __m512i limit = regs ? _mm512_permutex2var_epi32(entries[0], index, entries[1])
                                       : _mm512_i32gather_epi32(index, top_row, 4);
            /* top < limit means m < entry and top > limit means m >= entry (see
             * anneal_int_lanes); on a tie, in about one proposal in 2^28, every
             * lane takes the exact test */
            __mmask16 flip = _mm512_cmplt_epu32_mask(top, limit);
            if (__builtin_expect(_mm512_cmpeq_epi32_mask(top, limit) != 0, 0))
                flip = below_entries(row, index, low, high);
            if (flip) {
                up[i] ^= flip;
                const __mmask16 rise = flip & up[i], fall = flip & (__mmask16)~up[i];
                for (int64_t k = indptr[i]; k < indptr[i + 1]; k++) {
                    const __m512i step = _mm512_set1_epi32((int32_t)(2 * values[k]));
                    int32_t *f = fields + LANES * indices[k];
                    __m512i field = _mm512_load_si512(f);
                    field = _mm512_mask_add_epi32(field, rise, field, step);
                    field = _mm512_mask_sub_epi32(field, fall, field, step);
                    _mm512_store_si512(f, field);
                }
            }
        }
    }
}

/* cascor_anneal_int_scalar's anneal, reads r0 .. r0 + 15 side by side: read
 * r0 + l in lane l, whose stream is lane l % 8 of stream group l / 8.  Each
 * lane draws its own read's stream and makes that read's proposals in the
 * same order, so every read ends with the scalar loop's spins.  In the last
 * group, lanes past the final read anneal the reads that would follow it and
 * are never written out.
 *
 * A proposal is accepted when m = word >> 11 is below its entry E <= 2^53.
 * The lanes first compare word >> 32 = m >> 21 with the entry's top
 * T = min(E >> 21, 2^32 - 1), from tops, built here from table: m >> 21 < T
 * gives m < (T + 1) 2^21 <= E, and m >> 21 > T gives T = E >> 21 (only
 * E = 2^53 saturates, and m >> 21 < 2^32) and so m >= (T + 1) 2^21 > E.  Only
 * m >> 21 = T leaves the answer open, and below_entries settles it.
 *
 * scratch holds 16 n int32 fields, from its first 64-byte boundary, so that
 * each spin's sixteen fields take one cache line; then the sweeps x
 * table_width tops as uint32, and then n 16-bit lane masks. */
LANE_TARGET static void anneal_int_lanes(
    const uint32_t *restrict seed_words, int64_t seed_len, int64_t reads, int64_t n,
    int64_t sweeps, const int64_t *restrict indptr, const int64_t *restrict indices,
    const int64_t *restrict values, const int64_t *restrict h, const uint64_t *restrict table,
    int64_t table_width, int64_t *restrict scratch, int8_t *restrict out)
{
    /* spin i's field in lane l is fields[LANES * i + l] */
    int32_t *fields = (int32_t *)(((uintptr_t)scratch + 63) & ~(uintptr_t)63);
    uint32_t *tops = (uint32_t *)(fields + LANES * n);
    for (int64_t k = 0; k < sweeps * table_width; k++)
        tops[k] = table[k] >> 21 > UINT32_MAX ? UINT32_MAX : (uint32_t)(table[k] >> 21);
    /* bit l of up[i]: spin i is +1 in lane l */
    uint16_t *up = (uint16_t *)(tops + sweeps * table_width);
    for (int64_t r0 = 0; r0 < reads; r0 += LANES) {
        const int lanes = reads - r0 < LANES ? (int)(reads - r0) : LANES;
        /* per stream group, as a pcg64x8 lays them out: state limbs s0 s1 s2, then
         * increment limbs c0 c1 c2, each of eight lanes */
        uint64_t limbs[2][6][8];
        for (int l = 0; l < LANES; l++) {
            pcg64 one;
            seed_stream(&one, seed_words, seed_len, (uint64_t)(r0 + l));
            for (int k = 0; k < 6; k++)
                limbs[l / 8][k][l % 8] =
                    (uint64_t)((k < 3 ? one.state : one.inc) >> 52 * (k % 3)) & M52;
        }
        pcg64x8 g[2];
        memcpy(g, limbs, sizeof g);
        /* spin k from the top bit of 32-bit half k % 2 (low first) of word k / 2 */
        for (int64_t k = 0; k < n; k += 2) {
            const __m512i low = pcg_next_x8(&g[0]), high = pcg_next_x8(&g[1]);
            up[k] = join_lanes(_mm512_movepi64_mask(_mm512_slli_epi64(low, 32)),
                               _mm512_movepi64_mask(_mm512_slli_epi64(high, 32)));
            if (k + 1 < n)
                up[k + 1] = join_lanes(_mm512_movepi64_mask(low), _mm512_movepi64_mask(high));
        }
        for (int64_t i = 0; i < n; i++) {
            __m512i local = _mm512_set1_epi32((int32_t)h[i]);
            for (int64_t k = indptr[i]; k < indptr[i + 1]; k++) {
                const __m512i value = _mm512_set1_epi32((int32_t)values[k]);
                const __mmask16 plus = up[indices[k]];
                local = _mm512_mask_add_epi32(local, plus, local, value);
                local = _mm512_mask_sub_epi32(local, (__mmask16)~plus, local, value);
            }
            _mm512_store_si512(fields + LANES * i, local);
        }
        if (table_width <= 32)
            sweep_lanes(2, g, n, sweeps, indptr, indices, values, table, tops, table_width,
                        fields, up);
        else
            sweep_lanes(0, g, n, sweeps, indptr, indices, values, table, tops, table_width,
                        fields, up);
        int64_t i = 0;
        for (; i + 8 <= n; i += 8) {  /* eight spins per word: byte k is spin i + k */
            /* the low and the high bytes of masks i .. i + 7: lanes 0-7, then lanes 8-15 */
            const __m128i masks = _mm_loadu_si128((const __m128i *)(up + i));
            const uint64_t bytes[2] = {
                (uint64_t)_mm_cvtsi128_si64(
                    _mm_packus_epi16(_mm_and_si128(masks, _mm_set1_epi16(0xff)), masks)),
                (uint64_t)_mm_cvtsi128_si64(_mm_packus_epi16(_mm_srli_epi16(masks, 8), masks))};
            for (int l = 0; l < lanes; l++) {
                /* 1 where spin i + k is +1, then bytes 0x01 or 0xff (-1) */
                const uint64_t bits = bytes[l / 8] >> l % 8 & 0x0101010101010101ULL;
                const uint64_t spins = ~0ULL - bits * 0xfe;
                memcpy(out + (r0 + l) * n + i, &spins, 8);
            }
        }
        for (; i < n; i++)
            for (int l = 0; l < lanes; l++)
                out[(r0 + l) * n + i] = (up[i] >> l & 1) ? 1 : -1;
    }
}
#endif

/* cascor_anneal_int_scalar's spins, from the sixteen-lane loop on hosts with
 * AVX-512F, DQ, VL, IFMA and VBMI and from the scalar loop elsewhere.  fields
 * is scratch for 9 n + 8 + ceil(sweeps table_width / 2) int64: 66 bytes per
 * spin, 4 per table entry and 63 to reach a 64-byte boundary for the lane
 * loop (anneal_int_lanes).  The lane loop's int32 fields, h, values and steps
 * 2 values[k] are all within table_width - 1 or twice that in magnitude, so a
 * table wider than 2^30 entries runs the scalar loop. */
void cascor_anneal_int(const uint32_t *restrict seed_words, int64_t seed_len, int64_t reads,
                       int64_t n, int64_t sweeps, const int64_t *restrict indptr,
                       const int64_t *restrict indices, const int64_t *restrict values,
                       const int64_t *restrict h, const uint64_t *restrict table,
                       int64_t table_width, int64_t *restrict fields, int8_t *restrict out)
{
#if defined(__x86_64__)
    if (table_width <= (1 << 30) && __builtin_cpu_supports("avx512f") &&
        __builtin_cpu_supports("avx512dq") && __builtin_cpu_supports("avx512vl") &&
        __builtin_cpu_supports("avx512ifma") && __builtin_cpu_supports("avx512vbmi")) {
        anneal_int_lanes(seed_words, seed_len, reads, n, sweeps, indptr, indices, values, h,
                         table, table_width, fields, out);
        return;
    }
#endif
    cascor_anneal_int_scalar(seed_words, seed_len, reads, n, sweeps, indptr, indices, values,
                             h, table, table_width, fields, out);
}

/* Random mixed-SAT instances: the draw and the screening count that
 * sat.generate_mixed_sat makes for each attempt. */

/* A PCG64 stream that also hands out 32-bit halves, as numpy's PCG64 does: a
 * fresh word gives its low half and keeps its high half for the next 32-bit
 * draw.  next_double takes whole words and neither reads nor clears the kept
 * half. */
typedef struct {
    pcg64 g;
    int has_half;
    uint32_t half;
} pcg64_halves;

static uint32_t next_half(pcg64_halves *s)
{
    if (s->has_half) {
        s->has_half = 0;
        return s->half;
    }
    const uint64_t word = pcg_next(&s->g);
    s->has_half = 1;
    s->half = (uint32_t)(word >> 32);
    return (uint32_t)word;
}

/* A uniform integer in [0, r] for r < 2^32 - 1, as numpy's
 * random_bounded_uint64(0, r) draws it: nothing drawn when r is 0, else
 * Lemire's multiply-shift of a 32-bit half by r + 1, drawn again while the
 * product's low half is below (2^32 - 1 - r) % (r + 1). */
static uint32_t bounded(pcg64_halves *s, uint32_t r)
{
    if (r == 0)
        return 0;
    const uint32_t span = r + 1;
    uint64_t m = (uint64_t)next_half(s) * span;
    if ((uint32_t)m < span) {
        const uint32_t threshold = (UINT32_MAX - r) % span;
        while ((uint32_t)m < threshold)
            m = (uint64_t)next_half(s) * span;
    }
    return (uint32_t)(m >> 32);
}

/* Draw `attempt` of a mixed-SAT spec over num_vars variables: the clauses
 * that numpy's Generator(PCG64(SeedSequence((seed, attempt)))) gives through
 * choice and random, one clause after another.
 *
 * - Length: one next_double u, and lengths[i] for the first i with
 *   cdf[i] > u (choice's searchsorted on its own cumulative weights).
 * - Variables: choice(num_vars, k, replace=False), which for num_vars up to
 *   10000 is Floyd's algorithm, each j = num_vars - k .. num_vars - 1 taking
 *   bounded(j), or j itself when that value is taken already; then its
 *   shuffle, i = k - 1 .. 1 swapping places i and bounded(i).
 * - Signs: k more next_doubles, one per variable; below 0.5 negates it.
 *
 * Writes each clause's length to sizes and its signed DIMACS literals
 * (variables are drawn indices + 1) to literals, clause after clause, and
 * returns the number of literals written.  literals must hold num_clauses
 * times the largest length, and every length must be at most num_vars. */
int64_t cascor_draw_instance(const uint32_t *restrict seed_words, int64_t seed_len,
                             uint64_t attempt, int64_t num_vars, int64_t num_clauses,
                             const int64_t *restrict lengths, const double *restrict cdf,
                             int64_t num_lengths, int64_t *restrict sizes,
                             int64_t *restrict literals)
{
    pcg64_halves s = {.has_half = 0};
    seed_stream(&s.g, seed_words, seed_len, attempt);
    int64_t *clause = literals;
    for (int64_t c = 0; c < num_clauses; c++) {
        const double u = next_double(&s.g);
        int64_t i = 0;
        while (i < num_lengths - 1 && !(cdf[i] > u))
            i++;
        const int64_t k = sizes[c] = lengths[i];
        for (int64_t t = 0; t < k; t++) {
            const int64_t j = num_vars - k + t;
            int64_t value = bounded(&s, (uint32_t)j);
            for (int64_t p = 0; p < t; p++) {
                if (clause[p] == value) {
                    value = j;
                    break;
                }
            }
            clause[t] = value;
        }
        for (int64_t t = k - 1; t > 0; t--) {
            const int64_t o = bounded(&s, (uint32_t)t), held = clause[t];
            clause[t] = clause[o];
            clause[o] = held;
        }
        for (int64_t t = 0; t < k; t++)
            clause[t] = next_double(&s.g) < 0.5 ? -(clause[t] + 1) : clause[t] + 1;
        clause += k;
    }
    return clause - literals;
}

/* Bit b of word j holds variable j + 1 in the assignment whose variables
 * 1..6 spell b. */
static const uint64_t LOW_VAR_WORDS[6] = {
    0xaaaaaaaaaaaaaaaaULL, 0xccccccccccccccccULL, 0xf0f0f0f0f0f0f0f0ULL,
    0xff00ff00ff00ff00ULL, 0xffff0000ffff0000ULL, 0xffffffff00000000ULL,
};

/* The solutions of a CNF over n <= 26 variables, counted up to cap: their
 * number, or -1 as soon as it passes cap.  Clause c holds variable v true
 * when bit v - 1 of masks[2 c] is set and false when that bit of
 * masks[2 c + 1] is.  scratch holds 3 num_clauses words.
 *
 * Assignments go 64 to a word: bit b of word w is the assignment whose
 * variables 1..6 spell b and whose variables 7..n spell w.  Each word starts
 * with the bits of real assignments set and is ANDed with one clause's word
 * after another until it is zero: a clause's word is all ones when one of its
 * literals on variables 7..n holds in w, and else the OR of its literals'
 * words on variables 1..6. */
int64_t cascor_count_solutions(int64_t n, int64_t num_clauses, const uint64_t *restrict masks,
                               int64_t cap, uint64_t *restrict scratch)
{
    for (int64_t c = 0; c < num_clauses; c++) {
        const uint64_t pos = masks[2 * c], neg = masks[2 * c + 1];
        uint64_t low = 0;
        for (int j = 0; j < 6; j++) {
            if (pos >> j & 1)
                low |= LOW_VAR_WORDS[j];
            if (neg >> j & 1)
                low |= ~LOW_VAR_WORDS[j];
        }
        scratch[3 * c] = pos >> 6;  /* bit v - 7 of w holds variable v */
        scratch[3 * c + 1] = neg >> 6;
        scratch[3 * c + 2] = low;
    }
    const uint64_t real = n >= 6 ? ~0ULL : (1ULL << (1 << n)) - 1;
    const uint64_t words = 1ULL << (n > 6 ? n - 6 : 0);
    const uint64_t *end = scratch + 3 * num_clauses;
    int64_t count = 0;
    for (uint64_t w = 0; w < words; w++) {
        uint64_t alive = real;
        for (const uint64_t *c = scratch; alive && c < end; c += 3)
            if (!(w & c[0]) && !(~w & c[1]))
                alive &= c[2];
        count += __builtin_popcountll(alive);
        if (count > cap)
            return -1;
    }
    return count;
}

/* The sample file codec.  Both entry points hold the one line layout that
 * samplers.samples_to_jsonl writes, a JSON object with these keys, in this
 * order and with these separators, and a final newline:
 *
 *   {"read": R, "spins": [S, S, ...], "energy": E, "core_time_us": C,
 *    "wall_time_us": W, "solution": X, "gauge": G}
 *
 * (shown on two lines here), where each S is 1 or -1, X is null or a string
 * of 0 and 1 characters, and a line without a gauge tag ends at X. */

static char *put_text(char *p, const char *text, int64_t size)
{
    memcpy(p, text, (size_t)size);
    return p + size;
}

#define PUT_LITERAL(p, literal) put_text((p), (literal), (int64_t)sizeof(literal) - 1)

/* The decimal digits of value >= 0, 19 bytes at most: reads, gauge tags and a
 * SampleBatch's times are never negative. */
static char *put_int(char *p, int64_t value)
{
    char digits[19];
    int k = 0;
    do {
        digits[k++] = (char)('0' + value % 10);
        value /= 10;
    } while (value);
    while (k)
        *p++ = digits[--k];
    return p;
}

static int64_t text_size(const int64_t *offsets, int64_t k)
{
    return offsets[k + 1] - offsets[k];
}

/* Every line of a sample file, written to out, whose capacity is in bytes;
 * returns the number of bytes written, or -1 if they would not fit.  Line i
 * holds read reads[i], times cores[i] and walls[i], all >= 0, and, when
 * gauges[i] >= 0, that gauge tag.  Its spins, energy and solution are the
 * texts of distinct row rows[i]: text k of texts is texts[offsets[k] ..
 * offsets[k + 1]), and holds the spins of row k for k < num_rows, the energy
 * of row k - num_rows below 2 num_rows, and the solution of row k - 2 num_rows
 * after those. */
int64_t cascor_sample_lines(int64_t lines, const int64_t *reads, const int64_t *cores,
                            const int64_t *walls, const int64_t *gauges, const int64_t *rows,
                            int64_t num_rows, const char *texts, const int64_t *offsets,
                            char *out, int64_t capacity)
{
    char *p = out;
    for (int64_t i = 0; i < lines; i++) {
        const int64_t spins = rows[i], energy = num_rows + rows[i];
        const int64_t solution = 2 * num_rows + rows[i];
        /* the keys and separators take 95 bytes, and four integers 76 at most */
        if (capacity - (p - out) < text_size(offsets, spins) + text_size(offsets, energy) +
                                       text_size(offsets, solution) + 200)
            return -1;
        p = PUT_LITERAL(p, "{\"read\": ");
        p = put_int(p, reads[i]);
        p = PUT_LITERAL(p, ", \"spins\": ");
        p = put_text(p, texts + offsets[spins], text_size(offsets, spins));
        p = PUT_LITERAL(p, ", \"energy\": ");
        p = put_text(p, texts + offsets[energy], text_size(offsets, energy));
        p = PUT_LITERAL(p, ", \"core_time_us\": ");
        p = put_int(p, cores[i]);
        p = PUT_LITERAL(p, ", \"wall_time_us\": ");
        p = put_int(p, walls[i]);
        p = PUT_LITERAL(p, ", \"solution\": ");
        p = put_text(p, texts + offsets[solution], text_size(offsets, solution));
        if (gauges[i] >= 0) {
            p = PUT_LITERAL(p, ", \"gauge\": ");
            p = put_int(p, gauges[i]);
        }
        p = PUT_LITERAL(p, "}\n");
    }
    return p - out;
}

/* The scanner's steps each take the position p of the text that ends at end
 * and return the position after what they matched, or NULL on a mismatch,
 * which they pass on. */

static const char *scan_literal(const char *p, const char *end, const char *literal,
                                int64_t size)
{
    if (!p || end - p < size || memcmp(p, literal, (size_t)size) != 0)
        return NULL;
    return p + size;
}

#define SCAN_LITERAL(p, end, literal) \
    scan_literal((p), (end), (literal), (int64_t)sizeof(literal) - 1)

static int is_digit(const char *p, const char *end)
{
    return p < end && *p >= '0' && *p <= '9';
}

/* A run of digits: at least min_digits of them, and at most max_digits. */
static const char *scan_digits(const char *p, const char *end, int64_t min_digits,
                               int64_t max_digits)
{
    if (!p)
        return NULL;
    const char *start = p;
    while (is_digit(p, end) && p - start < max_digits)
        p++;
    return p - start < min_digits || is_digit(p, end) ? NULL : p;
}

/* A non-negative integer in canonical decimal (0, or no leading zero) that
 * fits int64, into *value. */
static const char *scan_count(const char *p, const char *end, int64_t *value)
{
    if (!is_digit(p, end) || (*p == '0' && is_digit(p + 1, end)))
        return NULL;
    uint64_t v = 0;
    for (; is_digit(p, end); p++) {
        const unsigned digit = (unsigned)(*p - '0');
        if (v > ((uint64_t)INT64_MAX - digit) / 10)
            return NULL;
        v = 10 * v + digit;
    }
    *value = (int64_t)v;
    return p;
}

/* A JSON number whose integer part has at most 18 digits and whose exponent,
 * if any, at most 3, with (integer digits - 1) + exponent below 308: one that
 * json.loads reads as an int within int64 or as a finite float. */
static const char *scan_energy(const char *p, const char *end)
{
    if (p < end && *p == '-')
        p++;
    const char *digits = p;
    p = p < end && *p == '0' ? p + 1 : scan_digits(p, end, 1, 18);
    if (!p || is_digit(p, end))
        return NULL;
    const int64_t integer_digits = p - digits;
    if (p < end && *p == '.')
        p = scan_digits(p + 1, end, 1, INT64_MAX);
    if (p && p < end && (*p == 'e' || *p == 'E')) {
        p++;
        const int negative = p < end && *p == '-';
        if (p < end && (*p == '-' || *p == '+'))
            p++;
        const char *exponent_digits = p;
        p = scan_digits(p, end, 1, 3);
        if (!p)
            return NULL;
        int64_t exponent = 0;
        for (const char *d = exponent_digits; d < p; d++)
            exponent = 10 * exponent + (*d - '0');
        if (!negative && integer_digits - 1 + exponent >= 308)
            return NULL;
    }
    return p;
}

/* Checks that text holds exactly `lines` lines in the layout above, each with
 * `width` spins, and returns 1, or returns 0 at the first byte that departs
 * from it.  Line i's read, core_time_us, wall_time_us and gauge tag (0 when it
 * has none) go to ints[i], ints[lines + i], ints[2 lines + i] and
 * ints[3 lines + i], and its spins to spins[i * width ...]; the energy and the
 * solution are checked and not kept. */
int64_t cascor_sample_scan(const char *text, int64_t size, int64_t lines, int64_t width,
                           int64_t *ints, int8_t *spins)
{
    const char *p = text, *end = text + size;
    for (int64_t i = 0; i < lines; i++) {
        p = SCAN_LITERAL(p, end, "{\"read\": ");
        p = p ? scan_count(p, end, &ints[i]) : NULL;
        p = SCAN_LITERAL(p, end, ", \"spins\": [");
        for (int64_t k = 0; p && k < width; k++) {
            if (k)
                p = SCAN_LITERAL(p, end, ", ");
            const int negative = p && p < end && *p == '-';
            p = SCAN_LITERAL(negative ? p + 1 : p, end, "1");
            spins[i * width + k] = negative ? -1 : 1;
        }
        p = SCAN_LITERAL(p, end, "], \"energy\": ");
        p = p ? scan_energy(p, end) : NULL;
        p = SCAN_LITERAL(p, end, ", \"core_time_us\": ");
        p = p ? scan_count(p, end, &ints[lines + i]) : NULL;
        p = SCAN_LITERAL(p, end, ", \"wall_time_us\": ");
        p = p ? scan_count(p, end, &ints[2 * lines + i]) : NULL;
        p = SCAN_LITERAL(p, end, ", \"solution\": ");
        if (p && p < end && *p == '"') {
            for (p++; p < end && (*p == '0' || *p == '1'); p++)
                ;
            p = SCAN_LITERAL(p, end, "\"");
        } else {
            p = SCAN_LITERAL(p, end, "null");
        }
        ints[3 * lines + i] = 0;
        if (p && p < end && *p == ',') {
            p = SCAN_LITERAL(p, end, ", \"gauge\": ");
            p = p ? scan_count(p, end, &ints[3 * lines + i]) : NULL;
        }
        p = SCAN_LITERAL(p, end, "}\n");
        if (!p)
            return 0;
    }
    return p == end;
}
