/* Step loops of the state march and of the two linearized marches, the
 * tangent and the adjoint, the adjoint gradient assembly, and the
 * tridiagonal solve they share.
 *
 * `marchlib` compiles this file with `-O3 -ffp-contract=off` and calls it
 * through ctypes. Each function does the operations of the numpy code it
 * replaced in the same order, one IEEE operation per numpy operation and no
 * contraction into fused multiply-adds. Each state step solves with one
 * elimination without pivoting for one right-hand side, which does LAPACK
 * dgtsv's operations in dgtsv's order wherever dgtsv keeps its pivots in
 * place (`eliminate`, `back_substitute`; `eliminate` says why the marches
 * need no pivoting). Only the state march eliminates: a tangent step and
 * its transpose, the adjoint step, solve the matrix of the state step from
 * the same level, so the state march keeps each step's pivots, the
 * diagonal its elimination leaves, and both linearized marches run only
 * the right-hand side's half of the elimination on them (`substitute`)
 * before their back substitution, with the bits of a fresh elimination.
 * Where dgtsv keeps its pivots in place, as on every grid a default run
 * solves, every level and every gradient entry has the bits the numpy
 * code, which called LAPACK, gave.
 * One evaluator (`march_eval`) gives every interpolated value and slope.
 * The back substitution of a step evaluates the diffusivity (and for the
 * linearized marches its slope) on the level the next step reads, node by
 * node as the nodes are solved, so that work runs beside the chain of
 * divisions instead of before it; `fill_bands` and `wall_slopes` give the
 * rest of the frozen coefficients that a tangent step and its transpose,
 * the adjoint step, both read. Each loop is one call per solve: the
 * adjoint march walks the whole trajectory backward, adds each level's
 * sensor residual from a list of point sources as it goes, and keeps only
 * the level it solves and the wall traces. One row function (`value_row`)
 * gives both linearized boundary terms, the tangent's wall sources and the
 * gradient assembly, their row of value sensitivities.
 *
 * One stop rule for the three loops: the back substitution tests every
 * entry it solves, and a loop stops at its first non-finite solved level
 * (ALARM), with *stop set to that step, counted from 1 in march order.
 * Only the state march, which eliminates, can also meet a singular step
 * (SINGULAR); a march it completed recorded no zero pivot. No loop raises:
 * `marchlib` turns the stop into `DivergenceError`.
 */

#include <float.h>
#include <math.h>
#include <stddef.h>

/* A `pchip.Pchip` as the C code reads it: its interval table (9 rows of
 * `intervals` entries: left knot, c0, c1, c2, c3, right knot, right value,
 * left and right slope), the knot range, the clamping tolerance, 1/h, h and
 * the banded slope Jacobian (intervals + 1 rows of 5). */
typedef struct {
    const double *table;
    long intervals;
    double lo, hi, tol, inv_h, h;
    const double *jac;
} interp;

enum { DONE = 0, ALARM = 1, SINGULAR = 2 };

#define ROW(p, k, i) ((p)->table[(long)(k) * (p)->intervals + (i)])

/* The interval of a local coordinate t >= 0, truncated and clipped to the
 * last interval as numpy's intp cast and 'clip' gather do; NaN, for which
 * the cast is undefined in C, takes interval 0 as the clip of numpy's
 * cast does. */
static long interval(const interp *p, double t)
{
    long last = p->intervals - 1;
    if (!(t > 0.0))
        return 0;
    if (t >= (double)last)
        return last;
    return (long)t;
}

/* x clamped into the knot range as np.maximum(x, lo) and np.minimum(., hi)
 * clamp it, which propagate NaN and return the bound on a tie, and the
 * interval of the clamped point in *i, as `pchip._locate` finds both. */
static double locate(const interp *p, double x, long *i)
{
    double xc = (isnan(x) || x > p->lo) ? x : p->lo;
    xc = (isnan(xc) || xc < p->hi) ? xc : p->hi;
    *i = interval(p, (xc - p->lo) * p->inv_h);
    return xc;
}

/* The value of `p` at x, as `pchip.eval(p, x, clamp=True)` gives it, and
 * its slope in *slope unless slope is NULL: x clamped into the knot range,
 * Horner in t = (xc - x_i) (1/h) for the value and ((3t c3 + (c2 + c2)) t +
 * c1) (1/h) for the slope, the knot's value and slope on a left or a right
 * knot, and slope 0 outside the tolerance of the knot range. The left-knot
 * fix-up matters for the slope, where Horner gives c1 (1/h), which can
 * differ from the left slope in the last bit. Inlined, a call with a NULL
 * slope does none of the slope's work. */
static inline double march_eval(const interp *p, double x, double *slope)
{
    long i;
    double xc = locate(p, x, &i);
    double t = (xc - ROW(p, 0, i)) * p->inv_h;
    double v = ROW(p, 4, i) * t;
    v += ROW(p, 3, i);
    v *= t;
    v += ROW(p, 2, i);
    v *= t;
    v += ROW(p, 1, i);
    int left = xc == ROW(p, 0, i), right = xc == ROW(p, 5, i);
    if (slope) {
        double d = t * 3.0;
        d *= ROW(p, 4, i);
        d += ROW(p, 3, i) + ROW(p, 3, i);
        d *= t;
        d += ROW(p, 2, i);
        d *= p->inv_h;
        if (left)
            d = ROW(p, 7, i);
        else if (right)
            d = ROW(p, 8, i);
        if (x < p->lo - p->tol || x > p->hi + p->tol)
            d = 0.0;
        *slope = d;
    }
    return left ? ROW(p, 1, i) : (right ? ROW(p, 6, i) : v);
}

/* The bands of the implicit operator I + r K of one step, r = dt/dx^2,
 * from the nodal diffusivities `alpha`: the sums s of neighbouring
 * diffusivities, s (-r/2) off the diagonal and s (-r) at the two wall
 * entries, (s[j-1] + s[j]) (r/2) + 1 on it with each end sum doubled.
 * Interior rows balance the two interface fluxes with the interface means
 * s/2, the wall rows are half-cell balances. These are the bands written
 * from the means bit for bit (halving and doubling are exact) unless half a
 * sum is subnormal or a sum of two sums overflows. The matrix is symmetric
 * under the half-cell volume weights, so it is the adjoint's operator too.
 * No diagonal where diag is NULL: the linearized marches solve on the
 * state march's pivots, the diagonal its elimination left. */
static void fill_bands(int nx, double r, const double *alpha, double *s,
                       double *sup, double *sub, double *diag)
{
    const double half_r = 0.5 * r, inner_r = -0.5 * r, wall_r = -r;
    for (int j = 0; j < nx - 1; j++) {
        s[j] = alpha[j] + alpha[j + 1];
        sup[j] = s[j] * inner_r;
        sub[j] = s[j] * inner_r;
    }
    sup[0] = s[0] * wall_r;
    sub[nx - 2] = s[nx - 2] * wall_r;
    if (!diag)
        return;
    diag[0] = (s[0] + s[0]) * half_r + 1.0;
    for (int j = 1; j < nx - 1; j++)
        diag[j] = (s[j - 1] + s[j]) * half_r + 1.0;
    diag[nx - 1] = (s[nx - 2] + s[nx - 2]) * half_r + 1.0;
}

/* The tridiagonal system (dl, d, du) x = b of order n >= 1 (dl and du the
 * n - 1 entries below and above the diagonal d) eliminated for one
 * right-hand side as LAPACK's dgtsv eliminates it where it keeps every
 * pivot in place: row by row fact = dl[i] / d[i], d[i+1] - du[i] fact,
 * b[i+1] - fact b[i] and dl[i] = 0 (not on the last row), overwriting d
 * with the n pivots, which `substitute` reads, and b. Returns dgtsv's
 * info: 0, or the 1-based row of the first zero pivot, n when only the
 * last one is zero, with the system left as the elimination reached it.
 * The pivot and the right-hand side of the row below are carried in
 * registers, off the store-to-load path of the chain.
 *
 * No rows are interchanged. Every march solves I + r K with K from
 * positive diffusivities (`fill_bands`): in each row the diagonal exceeds
 * the sum of the off-diagonal magnitudes by exactly 1, so the matrix is
 * strictly diagonally dominant by rows and an M-matrix, and Gaussian
 * elimination without pivoting is backward stable on such a tridiagonal
 * matrix (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed.,
 * SIAM 2002, sec. 9.6); its pivots stay at least 1. */
static int eliminate(int n, double *dl, double *d, const double *du, double *b)
{
    double di = d[0], bi = b[0];
    for (int i = 0; i < n - 1; i++) {
        if (di == 0.0)
            return i + 1;
        double fact = dl[i] / di;
        di = d[i + 1] - du[i] * fact;
        bi = b[i + 1] - fact * bi;
        d[i + 1] = di;
        b[i + 1] = bi;
        if (i < n - 2)
            dl[i] = 0.0;
    }
    return di == 0.0 ? n : 0;
}

/* The right-hand-side half of `eliminate` on a system it eliminated before,
 * from the n pivots d it left: fact = dl[i] / d[i], b[i+1] - fact b[i] and
 * dl[i] = 0 row by row, the operations `eliminate` does there in its order,
 * so b and dl are left with its bits. The divisions read no earlier
 * result, so they run off the chain, which is one product and one
 * difference per row. Every step of both linearized marches solves this
 * way, on the pivots the state march recorded for the same matrix. */
static void substitute(int n, double *dl, const double *d, double *b)
{
    double bi = b[0];
    for (int i = 0; i < n - 1; i++) {
        double fact = dl[i] / d[i];
        bi = b[i + 1] - fact * bi;
        b[i + 1] = bi;
        if (i < n - 2)
            dl[i] = 0.0;
    }
}

/* Node i of the level the next step reads, as `back_substitute` takes it:
 * alpha[i] = alpha(v[i]) and, unless ap is NULL, its slope in ap[i]; nothing
 * where v is NULL. */
static inline void evaluate_node(const interp *p, const double *v, double *alpha,
                                 double *ap, int i)
{
    if (v)
        alpha[i] = march_eval(p, v[i], ap ? &ap[i] : NULL);
}

/* dgtsv's back substitution on a system `eliminate` returned 0 for: b[n-1]
 * / d[n-1], (b[n-2] - x[n-1] du[n-2]) / d[n-2], then (b[i] - du[i] x[i+1]
 * - dl[i] x[i+2]) / d[i] upward, the dl term kept where dl[i] is 0 because
 * it decides the sign of a zero and carries an inf or NaN of x[i+2]; x[i+1]
 * is carried in a register and x[i+2] read back from b. The loop subtracts
 * the dl term first, ((b[i] - dl[i] x[i+2]) - du[i] x[i+1]), so that only
 * one product and one difference wait on x[i+1]. That keeps dgtsv's bits:
 * every row the loop reaches has dl[i] = +0 (`eliminate` and `substitute`
 * zero it), so for a finite x[i+2] the term z = dl[i] x[i+2] is a zero,
 * and (b - z) - y equals (b - y) - z for every b and y, zeros of both
 * signs included. Only for a non-finite x[i+2] can the two orders carry
 * different NaN payloads, and the march stops at that level. As node i is
 * solved it evaluates the diffusivity `p` at v[i] into alpha[i] and,
 * unless ap is NULL, its slope into ap[i] (`evaluate_node`): v is the level
 * the next step reads, the solution b itself for the state march and the
 * next trajectory level for the linearized ones, or NULL for none. The
 * evaluations and the finiteness test of each solved entry do not feed the
 * chain of divisions, so they run beside it. Returns 1 when every entry of
 * the solution is finite, else 0. */
static inline int back_substitute(int n, const double *dl, const double *d,
                                  const double *du, double *b,
                                  const interp *p, const double *v,
                                  double *alpha, double *ap)
{
    b[n - 1] = b[n - 1] / d[n - 1];
    int finite = fabs(b[n - 1]) <= DBL_MAX;
    evaluate_node(p, v, alpha, ap, n - 1);
    if (n > 1) {
        b[n - 2] = (b[n - 2] - b[n - 1] * du[n - 2]) / d[n - 2];
        finite &= fabs(b[n - 2]) <= DBL_MAX;
        evaluate_node(p, v, alpha, ap, n - 2);
    }
    double x = b[n > 1 ? n - 2 : 0];
    for (int i = n - 3; i >= 0; i--) {
        x = ((b[i] - dl[i] * b[i + 2]) - du[i] * x) / d[i];
        b[i] = x;
        finite &= fabs(x) <= DBL_MAX;
        evaluate_node(p, v, alpha, ap, i);
    }
    return finite;
}

/* The whole solve for one right-hand side: the solution in b and dgtsv's
 * info returned, with dl and d overwritten by `eliminate`. The state
 * march calls its two halves; this whole is exported for the tests, which
 * hold it to LAPACK's own dgtsv bit for bit where dgtsv keeps its pivots in
 * place and to a plain reference elimination everywhere. */
int tridiagonal_solve(int n, double *dl, double *d, double *du, double *b)
{
    if (n < 1)
        return 0;
    int info = eliminate(n, dl, d, du, b);
    if (info == 0)
        back_substitute(n, dl, d, du, b, NULL, NULL, NULL, NULL);
    return info;
}

/* A loop's stop: `code` returned with *stop = step. */
static int stopped(int *stop, int step, int code)
{
    *stop = step;
    return code;
}

/* The state march on the (nt+1) x nx field U, whose level 0 is given and
 * finite. Step n fills the bands from the diffusivity of level n, forms
 * the right-hand side in level n + 1 with the two wall fluxes of level n,
 * and solves it there; its back substitution evaluates the diffusivity of
 * level n + 1, the one step n + 1 reads, as the nodes are solved. The
 * diffusivity of level 0 is evaluated before the first step. `work` holds
 * 5 nx - 3 doubles.
 *
 * Unless piv is NULL, step n fills its diagonal into row n of the nt x nx
 * block piv and eliminates it there, so that row keeps the step's pivots
 * for the tangent and adjoint steps that solve the same matrix
 * (`tangent_march`, `adjoint_march`).
 *
 * Returns DONE after step nt - 1; SINGULAR with *stop = n + 1 when the
 * matrix of step n is singular; ALARM with *stop = n + 1 when level n + 1
 * is not finite, before any step reads it, so the fluxes are evaluated on
 * finite walls only. */
int forward_march(int nx, int nt, double r, double c, const interp *alpha_p,
                  const interp *b0, const interp *bL, double *U, double *piv,
                  double *work, int *stop)
{
    double *alpha = work, *s = alpha + nx, *sup = s + nx - 1;
    double *sub = sup + nx - 1, *diag = sub + nx - 1;

    for (int j = 0; j < nx; j++)
        alpha[j] = march_eval(alpha_p, U[j], NULL);
    for (int n = 0; n < nt; n++) {
        double *un = U + (long)n * nx, *rhs = un + nx;
        double u0 = un[0], uL = un[nx - 1];
        double *d = piv ? piv + (long)n * nx : diag;
        fill_bands(nx, r, alpha, s, sup, sub, d);
        double beta0 = march_eval(b0, u0, NULL), betaL = march_eval(bL, uL, NULL);
        for (int j = 1; j < nx - 1; j++)
            rhs[j] = un[j];
        rhs[0] = u0 - c * beta0;
        rhs[nx - 1] = uL - c * betaL;
        if (eliminate(nx, sub, d, sup, rhs) != 0)
            return stopped(stop, n + 1, SINGULAR);
        if (!back_substitute(nx, sub, d, sup, rhs, alpha_p,
                             n + 1 < nt ? rhs : NULL, alpha, NULL))
            return stopped(stop, n + 1, ALARM);
    }
    return DONE;
}

/* The diffusivity and its slope on the trajectory level u, into alpha and
 * ap: the first level a linearized march reads, before its first step. */
static void level_coefficients(int nx, const interp *alpha_p, const double *u,
                               double *alpha, double *ap)
{
    for (int j = 0; j < nx; j++)
        alpha[j] = march_eval(alpha_p, u[j], &ap[j]);
}

/* The slopes b0' and bL' of the two wall fluxes on the trajectory level
 * u. With the bands from the level's diffusivity (`fill_bands`) and its
 * slope, they are the frozen coefficients of both linearized steps. */
static void wall_slopes(int nx, const interp *b0, const interp *bL,
                        const double *u, double *b0p, double *bLp)
{
    march_eval(b0, u[0], b0p);
    march_eval(bL, u[nx - 1], bLp);
}

/* The row d p(x) / d values of the interpolant's values at the point x
 * (clamped), with the operations of the numpy rows `grad_wrt_values_many`
 * of tests/pchip_rows.py, the plain reference it is held to: t = (xc
 * - x_i) / h, the Hermite weights, and H3 J[i] + H4 J[i+1] over columns i
 * - 1 .. i + 2 with phi_s and phi_t added after them. Sets *i to the
 * interval and band to those <= 4 entries (a column outside [0, n) is not
 * in the row), and returns the row's every other entry, H3 0 + H4 0: a
 * signed zero, NaN on a NaN x. Both linearized boundary terms read it: the
 * tangent's wall sources and the gradient assembly. */
static inline double value_row(const interp *p, double x, long *i, double band[4])
{
    double xc = locate(p, x, i);
    double t = (xc - ROW(p, 0, *i)) / p->h;
    double s = 1.0 - t;
    double phi_s = s * s * (3.0 - 2.0 * s);
    double phi_t = t * t * (3.0 - 2.0 * t);
    double H3 = -p->h * s * s * (s - 1.0);
    double H4 = p->h * t * t * (t - 1.0);
    const double *J0 = p->jac + *i * 5, *J1 = J0 + 5;
    for (int o = 0; o < 4; o++)
        band[o] = H3 * J0[1 + o] + H4 * J1[o];
    band[1] += phi_s;
    band[2] += phi_t;
    return H3 * 0.0 + H4 * 0.0;
}

/* The wall source of a tangent step: the dense `value_row` at the wall
 * value x times the direction's values h, summed in column order from
 * +0.0. The zeros off the band are multiplied too, so an inf or NaN
 * anywhere in h gives NaN, as a dot product does. */
static double wall_source(const interp *p, double x, const double *h)
{
    long i, n = p->intervals + 1;
    double band[4], sum = 0.0;
    double off = value_row(p, x, &i, band);
    for (long j = 0; j < n; j++)
        sum += (j >= i - 1 && j <= i + 2 ? band[j - i + 1] : off) * h[j];
    return sum;
}

/* The tangent march on the (nt+1) x nx field W, whose level 0 is given,
 * along the trajectory U of the same shape and the nt x nx pivot block piv
 * its state march recorded, in the direction h of the flux values, those
 * of b0 first and those of bL after them. Step k takes the
 * coefficients of level k of U and the increments du of level k + 1, and
 * forms in level k + 1 of W the level k less its transport correction,
 * with pw2[j] = ap[j] w[j] + ap[j+1] w[j+1]: ((-r) du[0]) pw2[0] on the
 * first row, (r/2) (du[j-1] pw2[j-1] - du[j] pw2[j]) inside and
 * (r du[nx-2]) pw2[nx-2] on the last; then it takes c (beta' w + src) off
 * each wall entry, src the `wall_source` of level k, and solves there on
 * row k of piv, the pivots of the state step from level k, which solves
 * the same matrix: `substitute`, then the back substitution, which
 * evaluates the diffusivity and its slope on level k + 1 of U, which pw2
 * no longer needs. `work` holds 6 nx - 4 doubles.
 *
 * Returns DONE after step nt - 1; ALARM with *stop = k + 1 when level
 * k + 1 of W is not finite. */
int tangent_march(int nx, int nt, double r, double c, const interp *alpha_p,
                  const interp *b0, const interp *bL, const double *U,
                  const double *piv, double *W, const double *h, double *work,
                  int *stop)
{
    const double half_r = 0.5 * r;
    double *alpha = work, *ap = alpha + nx, *s = ap + nx, *sup = s + nx - 1;
    double *sub = sup + nx - 1, *pw2 = sub + nx - 1;
    const double *hL = h + b0->intervals + 1;

    level_coefficients(nx, alpha_p, U, alpha, ap);
    for (int k = 0; k < nt; k++) {
        const double *u = U + (long)k * nx, *un = u + nx;
        const double *w = W + (long)k * nx, *d = piv + (long)k * nx;
        double *rhs = W + (long)(k + 1) * nx, b0p, bLp;
        fill_bands(nx, r, alpha, s, sup, sub, NULL);
        wall_slopes(nx, b0, bL, u, &b0p, &bLp);
        for (int j = 0; j < nx - 1; j++)
            pw2[j] = ap[j] * w[j] + ap[j + 1] * w[j + 1];
        for (int j = 1; j < nx - 1; j++)
            rhs[j] = w[j] - half_r * ((un[j] - un[j - 1]) * pw2[j - 1]
                                      - (un[j + 1] - un[j]) * pw2[j]);
        rhs[0] = w[0] - ((-r) * (un[1] - un[0])) * pw2[0];
        rhs[nx - 1] = w[nx - 1] - (r * (un[nx - 1] - un[nx - 2])) * pw2[nx - 2];
        rhs[0] -= c * (b0p * w[0] + wall_source(b0, u[0], h));
        rhs[nx - 1] -= c * (bLp * w[nx - 1] + wall_source(bL, u[nx - 1], hL));
        substitute(nx, sub, d, rhs);
        if (!back_substitute(nx, sub, d, sup, rhs, alpha_p,
                             k + 1 < nt ? un : NULL, alpha, ap))
            return stopped(stop, k + 1, ALARM);
    }
    return DONE;
}

/* The adjoint march along the trajectory U ((nt+1) x nx) and the nt x nx
 * pivot block piv its state march recorded, backward from level nt, where
 * phi is 0, to level 0. The source is a list of point
 * contributions in level order: those of level s are node[k] and value[k]
 * for start[s] <= k < start[s + 1] (start has nt + 2 entries).
 *
 * The step that solves level s takes the coefficients of level s of U, as
 * the tangent step from that level does, and the increments du of level
 * s + 1. It sums the contributions of level s + 1 in list order into a
 * row that starts at +0.0, forms psi + dt row in q with the row's two wall
 * entries doubled, solves it there and carries the solved level q to psi
 * through the transpose of the tangent step's transport correction and
 * walls: inside q minus (pd[j] + pd[j+1]) (ap (r/2)) with pd = du dq, and
 * on the walls (q - ((r du) ap) dq) - (c beta') q. Its back substitution
 * evaluates the diffusivity and its slope on level s - 1 of U, the slope
 * into the second of two slope buffers because the carry still reads level
 * s's. Level nt - 1 is evaluated before the first step.
 *
 * That step solves the matrix of the state step from level s, so it
 * substitutes (`substitute`) and back substitutes on the pivots of row s
 * of piv, and so skips the elimination's chain of divisions and gives its
 * bits.
 *
 * Each solved level's two wall entries go to traces[2s] and traces[2s + 1],
 * and the whole level to row s of phi unless phi is NULL; level nt is
 * zeros in both. `work` holds 10 nx - 4 doubles.
 *
 * Returns DONE after the step that solves level 0; ALARM with *stop =
 * nt - s when the solved level s is not finite, after writing its traces
 * and its row of phi. */
int adjoint_march(int nx, int nt, double r, double c, double dt,
                  const interp *alpha_p, const interp *b0, const interp *bL,
                  const double *U, const double *piv, const ptrdiff_t *start,
                  const ptrdiff_t *node, const double *value, double *traces,
                  double *phi, double *work, int *stop)
{
    const double half_r = 0.5 * r;
    double *alpha = work, *ap = alpha + nx, *s = ap + nx, *sup = s + nx - 1;
    double *sub = sup + nx - 1, *pd = sub + nx - 1;
    double *ap_next = pd + nx - 1, *psi = ap_next + nx, *q = psi + nx;
    double *row = q + nx;

    traces[2 * (long)nt] = traces[2 * (long)nt + 1] = 0.0;
    for (int j = 0; j < nx; j++)
        psi[j] = 0.0;
    if (phi)
        for (int j = 0; j < nx; j++)
            phi[(long)nt * nx + j] = 0.0;
    level_coefficients(nx, alpha_p, U + (long)(nt - 1) * nx, alpha, ap);
    for (int lv = nt - 1; lv >= 0; lv--) {
        const double *u = U + (long)lv * nx, *un = u + nx;
        const double *d = piv + (long)lv * nx;
        double b0p, bLp;
        fill_bands(nx, r, alpha, s, sup, sub, NULL);
        wall_slopes(nx, b0, bL, u, &b0p, &bLp);
        for (int j = 0; j < nx; j++)
            row[j] = 0.0;
        for (ptrdiff_t k = start[lv + 1]; k < start[lv + 2]; k++)
            row[node[k]] += value[k];
        q[0] = psi[0] + (dt * row[0]) * 2.0;
        for (int j = 1; j < nx - 1; j++)
            q[j] = psi[j] + dt * row[j];
        q[nx - 1] = psi[nx - 1] + (dt * row[nx - 1]) * 2.0;
        substitute(nx, sub, d, q);
        int finite = back_substitute(nx, sub, d, sup, q, alpha_p,
                                     lv > 0 ? u - nx : NULL, alpha, ap_next);
        traces[2 * (long)lv] = q[0];
        traces[2 * (long)lv + 1] = q[nx - 1];
        if (phi)
            for (int j = 0; j < nx; j++)
                phi[(long)lv * nx + j] = q[j];
        if (!finite)
            return stopped(stop, nt - lv, ALARM);
        for (int j = 0; j < nx - 1; j++)
            pd[j] = q[j + 1] - q[j];
        double q0 = q[0], qL = q[nx - 1], dq0 = pd[0], dqL = pd[nx - 2];
        double du0 = un[1] - un[0], duL = un[nx - 1] - un[nx - 2];
        for (int j = 0; j < nx - 1; j++)
            pd[j] *= un[j + 1] - un[j];
        for (int j = 0; j < nx - 2; j++)
            psi[j + 1] = q[j + 1] - (pd[j] + pd[j + 1]) * (ap[j + 1] * half_r);
        psi[0] = (q0 - ((r * du0) * ap[0]) * dq0) - (c * b0p) * q0;
        psi[nx - 1] = (qL - ((r * duL) * ap[nx - 1]) * dqL) - (c * bLp) * qL;
        double *t = ap;
        ap = ap_next;
        ap_next = t;
    }
    return DONE;
}

/* One wall's half of `adjoint.assemble_gradient`: g = -sum over the levels
 * q of G[q] (w[q] trace[q]), where G[q] is the `value_row` of the wall
 * value x[q] and w is dt on every level but the last, where it is 0. Each
 * band entry times w trace is added to a +0.0 accumulator in level order,
 * as numpy's axis-0 sum adds the dense rows. The row's other entries, a
 * signed zero times a finite weight, leave such a sum as it is; only a NaN
 * there (from a NaN wall value or a non-finite weight) is added to them. */
static void assemble_wall(int levels, const double *x, long x_stride,
                          const double *trace, double dt, const interp *p,
                          double *g)
{
    long n = p->intervals + 1;
    for (long j = 0; j < n; j++)
        g[j] = 0.0;
    for (int q = 0; q < levels; q++) {
        long i;
        double band[4];
        double wt = (q < levels - 1 ? dt : 0.0) * trace[2 * q];
        double off = value_row(p, x[q * x_stride], &i, band) * wt;
        for (int o = 0; o < 4; o++) {
            long j = i - 1 + o;
            if (j >= 0 && j < n)
                g[j] += band[o] * wt;
        }
        if (isnan(off))
            for (long j = 0; j < n; j++)
                if (j < i - 1 || j > i + 2)
                    g[j] += off;
    }
    for (long j = 0; j < n; j++)
        g[j] = -g[j];
}

/* `adjoint.assemble_gradient` on the trajectory U ((levels) x nx) and the
 * wall traces (levels x 2): the gradient with respect to the values of the
 * flux at x = 0 in grad[0, n) and of the flux at x = L in grad[n, 2n). */
void assemble_gradient(int levels, int nx, double dt, const double *U,
                       const double *traces, const interp *b0,
                       const interp *bL, double *grad)
{
    assemble_wall(levels, U, nx, traces, dt, b0, grad);
    assemble_wall(levels, U + nx - 1, nx, traces + 1, dt, bL,
                  grad + b0->intervals + 1);
}
