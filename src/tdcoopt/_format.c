/* Trace rows as text, called from tdcoopt.trace.
 *
 * Each double is written as Python's repr writes it: the shortest digits
 * that read back as the same double, and of those the closest to it,
 * ties to an even last digit; fixed notation for decimal exponents from
 * -4 to 15 (".0" after an integral value), otherwise d.ddde+XX with at
 * least two exponent digits; "-0.0", "inf", "-inf" and "nan".
 *
 * The digits come from Schubfach (R. Giulietti, "The Schubfach way to
 * render doubles", 2020), as in the JDK's DoubleToDecimal, with one
 * change: the one-digit-shorter candidate is also tried for two-digit
 * significands (subnormals), since repr, unlike Java, may print a single
 * digit.  g holds g(k) for K_MIN <= k <= K_MAX, each as its high and low
 * 63 bits: floor(10^-k 2^(125 - floor(log2 10^-k))) + 1, computed with
 * Python integers by trace._schubfach_table.
 */
#include <stdint.h>
#include <string.h>

#include "_kernels.h"

#define K_MIN TDCOOPT_K_MIN
#define K_MAX TDCOOPT_K_MAX
#define Q_MIN (-1074)
#define C_MIN (UINT64_C(1) << 52)
#define MASK63 ((UINT64_C(1) << 63) - 1)

/* floor(e log10 2), floor(e log10(3/4) + e log10 2), floor(e log2 10),
 * exact for the exponents of doubles (the JDK's MathUtils) */
static int flog10pow2(int e)
{
    return (int)(((int64_t)e * 661971961083LL) >> 41);
}

static int flog10threequarterspow2(int e)
{
    return (int)(((int64_t)e * 661971961083LL - 274743187321LL) >> 41);
}

static int flog2pow10(int e)
{
    return (int)(((int64_t)e * 913124641741LL) >> 38);
}

/* the high 64 bits of a b */
static uint64_t mulhi(uint64_t a, uint64_t b)
{
#ifdef __SIZEOF_INT128__
    return (uint64_t)(((unsigned __int128)a * b) >> 64);
#else
    uint64_t a0 = a & 0xffffffff, a1 = a >> 32, b0 = b & 0xffffffff, b1 = b >> 32;
    uint64_t p01 = a0 * b1, p10 = a1 * b0;
    uint64_t mid = (a0 * b0 >> 32) + (p01 & 0xffffffff) + (p10 & 0xffffffff);
    return a1 * b1 + (p01 >> 32) + (p10 >> 32) + (mid >> 32);
#endif
}

/* floor(g cp / 2^127), rounded to odd */
static uint64_t rop(uint64_t g1, uint64_t g0, uint64_t cp)
{
    uint64_t x1 = mulhi(g0, cp);
    uint64_t y0 = g1 * cp;
    uint64_t y1 = mulhi(g1, cp);
    uint64_t z = (y0 >> 1) + x1;
    uint64_t vbp = y1 + (z >> 63);
    return vbp | (((z & MASK63) + MASK63) >> 63);
}

/* The shortest decimal f 10^e that rounds to c 2^q, the closest if several. */
static uint64_t to_decimal(int q, uint64_t c, const uint64_t *g, int *e)
{
    uint64_t out = c & 1;  /* an odd c excludes the interval's ends */
    uint64_t cb = c << 2, cbr = cb + 2, cbl;
    int k;
    if (c != C_MIN || q == Q_MIN) {
        cbl = cb - 2;
        k = flog10pow2(q);
    } else {  /* a power of two: the lower neighbour is half as far */
        cbl = cb - 1;
        k = flog10threequarterspow2(q);
    }
    int h = q + flog2pow10(-k) + 2;
    uint64_t g1 = g[2 * (k - K_MIN)], g0 = g[2 * (k - K_MIN) + 1];
    uint64_t vb = rop(g1, g0, cb << h);
    uint64_t vbl = rop(g1, g0, cbl << h);
    uint64_t vbr = rop(g1, g0, cbr << h);

    uint64_t s = vb >> 2;
    *e = k;
    if (s >= 10) {  /* one digit fewer: at most one of sp10, tp10 fits */
        uint64_t sp10 = s / 10 * 10, tp10 = sp10 + 10;
        int upin = vbl + out <= sp10 << 2;
        int wpin = (tp10 << 2) + out <= vbr;
        if (upin != wpin)
            return upin ? sp10 : tp10;
    }
    uint64_t t = s + 1;
    int uin = vbl + out <= s << 2;
    int win = (t << 2) + out <= vbr;
    if (uin != win)
        return uin ? s : t;
    /* both fit: the closer, ties to even */
    int64_t cmp = (int64_t)(vb - ((s + t) << 1));
    return cmp < 0 || (cmp == 0 && (s & 1) == 0) ? s : t;
}

static char *write_double(char *p, double v, const uint64_t *g)
{
    uint64_t bits;
    memcpy(&bits, &v, sizeof bits);
    uint64_t t = bits & (C_MIN - 1);
    int bq = (int)(bits >> 52) & 0x7ff;
    if (bq == 0x7ff) {
        if (t != 0) {
            memcpy(p, "nan", 3);
            return p + 3;
        }
        if (bits >> 63)
            *p++ = '-';
        memcpy(p, "inf", 3);
        return p + 3;
    }
    if (bits >> 63)
        *p++ = '-';
    if (bq == 0 && t == 0) {
        memcpy(p, "0.0", 3);
        return p + 3;
    }

    uint64_t f;
    int e;
    if (bq != 0) {
        int mq = -Q_MIN + 1 - bq;  /* -q */
        uint64_t c = C_MIN | t;
        if (0 < mq && mq < 53 && (c >> mq) << mq == c) {  /* an integer */
            f = c >> mq;
            e = 0;
        } else {
            f = to_decimal(-mq, c, g, &e);
        }
    } else {
        f = to_decimal(Q_MIN, t, g, &e);
    }

    /* the digits, without trailing zeros */
    char digits[20];
    while (f % 10 == 0) {
        f /= 10;
        e++;
    }
    char *end = digits + sizeof digits;
    char *d = end;
    do {
        *--d = (char)('0' + f % 10);
        f /= 10;
    } while (f);
    int n = (int)(end - d);
    int exp10 = n + e - 1;  /* v = d.ddd 10^exp10 */

    if (exp10 < -4 || exp10 >= 16) {
        *p++ = d[0];
        if (n > 1) {
            *p++ = '.';
            memcpy(p, d + 1, n - 1);
            p += n - 1;
        }
        *p++ = 'e';
        *p++ = exp10 < 0 ? '-' : '+';
        int a = exp10 < 0 ? -exp10 : exp10;
        if (a >= 100)
            *p++ = (char)('0' + a / 100);
        *p++ = (char)('0' + a / 10 % 10);
        *p++ = (char)('0' + a % 10);
    } else if (exp10 < 0) {
        memcpy(p, "0.0000", 1 - exp10);
        p += 1 - exp10;
        memcpy(p, d, n);
        p += n;
    } else if (exp10 + 1 < n) {
        memcpy(p, d, exp10 + 1);
        p += exp10 + 1;
        *p++ = '.';
        memcpy(p, d + exp10 + 1, n - exp10 - 1);
        p += n - exp10 - 1;
    } else {
        memcpy(p, d, n);
        p += n;
        memset(p, '0', exp10 + 1 - n);
        p += exp10 + 1 - n;
        memcpy(p, ".0", 2);
        p += 2;
    }
    return p;
}

static char *write_int(char *p, int64_t i)
{
    char digits[20];
    char *end = digits + sizeof digits, *d = end;
    uint64_t u = (uint64_t)i;
    if (i < 0) {
        *p++ = '-';
        u = -u;
    }
    do {
        *--d = (char)('0' + u % 10);
        u /= 10;
    } while (u);
    memcpy(p, d, end - d);
    return p + (end - d);
}

/* rows lines "iteration,cell,...,cell\r\n" of cols cells each into out,
 * which holds at least rows * (22 + 25 cols) bytes; returns their length */
long tdcoopt_format_rows(const int64_t *iterations, const double *cells,
                         long rows, long cols, const uint64_t *g, char *out)
{
    char *p = out;
    for (long i = 0; i < rows; i++) {
        p = write_int(p, iterations[i]);
        for (long j = 0; j < cols; j++) {
            *p++ = ',';
            p = write_double(p, cells[i * cols + j], g);
        }
        *p++ = '\r';
        *p++ = '\n';
    }
    return (long)(p - out);
}
