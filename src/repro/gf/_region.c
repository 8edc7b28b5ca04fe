/* GF(2^8) region multiply: dst = c*src, or dst ^= c*src.
 *
 * The field product is linear over XOR, so c*x = c*(x & 15) ^ c*(x & 240):
 * two 16-entry tables, one per nibble, cover every byte.  Both come out of
 * the caller's 256-entry product row of c (row[x] = c*x), so the field
 * itself (polynomial 0x11D) is defined in one place, repro.gf.arithmetic.
 *
 * With AVX2 each table sits in both lanes of a register and vpshufb looks
 * up 32 nibbles at once (Plank, Greenan & Miller, "Screaming Fast Galois
 * Field Arithmetic Using Intel SIMD Instructions", FAST'13); any other CPU
 * runs the same two lookups per byte in a scalar loop.  src and dst may
 * have any alignment; they must not partially overlap.
 */
#include <stddef.h>
#include <stdint.h>

#if defined(__GNUC__) && (defined(__x86_64__) || defined(__i386__))
#define REGION_AVX2 1
#include <immintrin.h>
#endif

static void region_scalar(const uint8_t *lo, const uint8_t *hi,
                          const uint8_t *src, uint8_t *dst, size_t n,
                          int accumulate)
{
    size_t i;
    if (accumulate) {
        for (i = 0; i < n; i++)
            dst[i] ^= lo[src[i] & 15] ^ hi[src[i] >> 4];
    } else {
        for (i = 0; i < n; i++)
            dst[i] = lo[src[i] & 15] ^ hi[src[i] >> 4];
    }
}

#ifdef REGION_AVX2
__attribute__((target("avx2")))
static size_t region_avx2(const uint8_t *lo, const uint8_t *hi,
                          const uint8_t *src, uint8_t *dst, size_t n,
                          int accumulate)
{
    const __m256i tlo = _mm256_broadcastsi128_si256(
        _mm_loadu_si128((const __m128i *)lo));
    const __m256i thi = _mm256_broadcastsi128_si256(
        _mm_loadu_si128((const __m128i *)hi));
    const __m256i mask = _mm256_set1_epi8(0x0f);
    size_t i;
    for (i = 0; i + 32 <= n; i += 32) {
        __m256i x = _mm256_loadu_si256((const __m256i *)(src + i));
        __m256i p = _mm256_xor_si256(
            _mm256_shuffle_epi8(tlo, _mm256_and_si256(x, mask)),
            _mm256_shuffle_epi8(thi,
                                _mm256_and_si256(_mm256_srli_epi64(x, 4), mask)));
        if (accumulate)
            p = _mm256_xor_si256(p, _mm256_loadu_si256((const __m256i *)(dst + i)));
        _mm256_storeu_si256((__m256i *)(dst + i), p);
    }
    return i;
}
#endif

void gf_region(const uint8_t *row, const uint8_t *src, uint8_t *dst,
               size_t n, int accumulate)
{
    uint8_t lo[16], hi[16];
    size_t done = 0;
    int j;
    for (j = 0; j < 16; j++) {
        lo[j] = row[j];
        hi[j] = row[j << 4];
    }
#ifdef REGION_AVX2
    if (__builtin_cpu_supports("avx2"))
        done = region_avx2(lo, hi, src, dst, n, accumulate);
#endif
    region_scalar(lo, hi, src + done, dst + done, n - done, accumulate);
}
