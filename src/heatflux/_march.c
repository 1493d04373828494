/* Step loops of the state march and of the adjoint march, and the adjoint
 * gradient assembly.
 *
 * `marchlib` compiles this file with `-O2 -ffp-contract=off` and calls it
 * through ctypes. Each function does the operations of the numpy code it
 * replaced in the same order, one IEEE operation per numpy operation and no
 * contraction into fused multiply-adds, and the loops solve with the LAPACK
 * routine dgtsv whose address the caller passes in (scipy's own). So every
 * level and every gradient entry has the bits the numpy code gave.
 *
 * Neither loop raises: each returns a stop code and the step it stopped
 * at, and the caller raises through `forward._check_levels`.
 */

#include <math.h>

typedef void dgtsv_fn(const int *n, const int *nrhs, double *dl, double *d,
                      double *du, double *b, const int *ldb, int *info);

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

/* The value `pchip.march_evaluator` gives at x: Horner in the local
 * coordinate, and the right value on the right knot. It skips the
 * evaluator's left-knot and outside fix-ups of the value: on a left knot
 * t = 0 gives c0 already (for values without negative zeros, which a
 * diffusivity never has), and a point outside is clamped onto an end knot. */
static double march_value(const interp *p, double x)
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
    return xc == ROW(p, 5, i) ? ROW(p, 6, i) : v;
}

/* The value and, in *slope, the slope `pchip.march_evaluator` gives at x,
 * with all of its fix-ups: the knot's value and slope on a left or a right
 * knot, and slope 0 outside the tolerance of the knot range. The slope
 * needs the left-knot fix-up: there Horner gives c1 (1/h), which can differ
 * from the left slope in the last bit. */
static double march_eval(const interp *p, double x, double *slope)
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
    double d = t * 3.0;
    d *= ROW(p, 4, i);
    d += ROW(p, 3, i) + ROW(p, 3, i);
    d *= t;
    d += ROW(p, 2, i);
    d *= p->inv_h;
    if (xc == ROW(p, 0, i)) {
        v = ROW(p, 1, i);
        d = ROW(p, 7, i);
    } else if (xc == ROW(p, 5, i)) {
        v = ROW(p, 6, i);
        d = ROW(p, 8, i);
    }
    if (x < p->lo - p->tol || x > p->hi + p->tol)
        d = 0.0;
    *slope = d;
    return v;
}

/* The value `pchip._eval_scalar(p, x, True)` gives at a finite x. */
static double scalar_value(const interp *p, double x)
{
    long last = p->intervals - 1;
    if (x < p->lo - p->tol || x > p->hi + p->tol)
        return x < p->lo ? ROW(p, 1, 0) : ROW(p, 6, last);
    double xc = x < p->lo ? p->lo : (x > p->hi ? p->hi : x);
    long i = interval(p, (xc - p->lo) * p->inv_h);
    if (xc == ROW(p, 0, i))
        return ROW(p, 1, i);
    if (xc == ROW(p, 5, i))
        return ROW(p, 6, i);
    double t = (xc - ROW(p, 0, i)) * p->inv_h;
    return ROW(p, 1, i) + t * (ROW(p, 2, i) + t * (ROW(p, 3, i) + t * ROW(p, 4, i)));
}

/* The bands of the implicit operator I + r K of one step, from the nodal
 * diffusivities `alpha`, as `forward._diffusion_bands` fills them: the sums
 * s of neighbouring diffusivities, s (-r/2) off the diagonal and s (-r) at
 * the two wall entries, (s[j-1] + s[j]) (r/2) + 1 on it with each end sum
 * doubled. */
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
    diag[0] = (s[0] + s[0]) * half_r + 1.0;
    for (int j = 1; j < nx - 1; j++)
        diag[j] = (s[j - 1] + s[j]) * half_r + 1.0;
    diag[nx - 1] = (s[nx - 2] + s[nx - 2]) * half_r + 1.0;
}

/* The state march on the (nt+1) x nx field U, whose level 0 is given.
 * Step n evaluates the diffusivity on level n, fills the bands, forms the
 * right-hand side in level n + 1 with the two wall fluxes of level n, and
 * solves it there. `work` holds 5 nx - 3 doubles.
 *
 * Returns DONE after step nt - 1; ALARM with *stop = n when a wall value of
 * level n is not finite, before any flux is evaluated there; SINGULAR with
 * *stop = n when the matrix of step n is singular. */
int forward_march(int nx, int nt, double r, double c, const interp *alpha_p,
                  const interp *b0, const interp *bL, double *U, double *work,
                  dgtsv_fn *dgtsv, int *stop)
{
    const int one = 1;
    double *alpha = work, *s = alpha + nx, *sup = s + nx - 1;
    double *sub = sup + nx - 1, *diag = sub + nx - 1;
    int info;

    for (int n = 0; n < nt; n++) {
        double *un = U + (long)n * nx, *rhs = un + nx;
        double u0 = un[0], uL = un[nx - 1];
        if (!isfinite(u0) || !isfinite(uL)) {
            *stop = n;
            return ALARM;
        }
        for (int j = 0; j < nx; j++)
            alpha[j] = march_value(alpha_p, un[j]);
        fill_bands(nx, r, alpha, s, sup, sub, diag);
        double beta0 = scalar_value(b0, u0), betaL = scalar_value(bL, uL);
        for (int j = 1; j < nx - 1; j++)
            rhs[j] = un[j];
        rhs[0] = u0 - c * beta0;
        rhs[nx - 1] = uL - c * betaL;
        dgtsv(&nx, &one, sub, diag, sup, rhs, &nx, &info);
        if (info != 0) {
            *stop = n;
            return SINGULAR;
        }
    }
    return DONE;
}

/* The steps of one block of the adjoint march: k levels, solved from row
 * k - 1 of `block` (k x nx) down to row 0, along the k + 1 trajectory
 * levels U (k + 1 x nx) of the block's state steps.
 *
 * Step i first computes the frozen coefficients of the state step from
 * level i of U, as `adjoint._step_coefficients` does: the diffusivity and
 * its slope ap, the bands, the two flux slopes b0', bL', and the
 * increments du of level i + 1. It forms psi + dt src in row i, the source
 * row src_row[i] of `src` with its two wall entries doubled (+ 0.0 where
 * src_row[i] < 0, a level the samples miss), solves it there and carries
 * the solved level q to psi: inside q minus (pd[j] + pd[j+1]) (ap (r/2))
 * with pd = du dq, and on the walls (q - ((r du) ap) dq) - (c beta') q.
 * `work` holds 7 nx - 4 doubles.
 *
 * Returns DONE, or SINGULAR with *stop = i when the matrix of row i is
 * singular. */
int adjoint_block(int nx, int k, double r, double c, double dt,
                  const interp *alpha_p, const interp *b0, const interp *bL,
                  const double *U, double *psi, double *block,
                  const double *src, const long *src_row, double *work,
                  dgtsv_fn *dgtsv, int *stop)
{
    const int one = 1;
    const double half_r = 0.5 * r;
    double *alpha = work, *ap = alpha + nx, *s = ap + nx, *sup = s + nx - 1;
    double *sub = sup + nx - 1, *diag = sub + nx - 1, *pd = diag + nx;
    int info;

    for (int i = k - 1; i >= 0; i--) {
        const double *u = U + (long)i * nx, *un = u + nx;
        double *q = block + (long)i * nx;
        for (int j = 0; j < nx; j++)
            alpha[j] = march_eval(alpha_p, u[j], &ap[j]);
        fill_bands(nx, r, alpha, s, sup, sub, diag);
        double b0p, bLp;
        march_eval(b0, u[0], &b0p);
        march_eval(bL, u[nx - 1], &bLp);
        if (src_row[i] < 0) {
            for (int j = 0; j < nx; j++)
                q[j] = psi[j] + 0.0;
        } else {
            const double *row = src + src_row[i] * nx;
            q[0] = psi[0] + (dt * row[0]) * 2.0;
            for (int j = 1; j < nx - 1; j++)
                q[j] = psi[j] + dt * row[j];
            q[nx - 1] = psi[nx - 1] + (dt * row[nx - 1]) * 2.0;
        }
        dgtsv(&nx, &one, sub, diag, sup, q, &nx, &info);
        if (info != 0) {
            *stop = i;
            return SINGULAR;
        }
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
    }
    return DONE;
}

/* One wall's half of `adjoint.assemble_gradient`: g = -sum over the levels
 * q of G[q] (w[q] trace[q]), where G[q] is the row `pchip.grad_wrt_values_many`
 * gives for the wall value x[q] (clamped) and w is dt on every level but
 * the last, where it is 0. Each row is formed with that function's
 * operations (t = (xc - x_i) / h, the Hermite weights, the <= 4 band
 * entries of H3 J[i] + H4 J[i+1] with phi_s and phi_t added after them),
 * and each entry times w trace is added to a +0.0 accumulator in level
 * order, as numpy's axis-0 sum adds the rows. The dense row's other
 * entries are H3 0 + H4 0, a zero times a finite weight, and a zero
 * leaves a sum that started at +0.0 as it is; only a NaN there (from a
 * NaN wall value or a non-finite weight) is added to them. */
static void assemble_wall(int levels, const double *x, long x_stride,
                          const double *trace, double dt, const interp *p,
                          double *g)
{
    long n = p->intervals + 1;
    for (long j = 0; j < n; j++)
        g[j] = 0.0;
    for (int q = 0; q < levels; q++) {
        long i;
        double xc = locate(p, x[q * x_stride], &i);
        double t = (xc - ROW(p, 0, i)) / p->h;
        double s = 1.0 - t;
        double phi_s = s * s * (3.0 - 2.0 * s);
        double phi_t = t * t * (3.0 - 2.0 * t);
        double H3 = -p->h * s * s * (s - 1.0);
        double H4 = p->h * t * t * (t - 1.0);
        double wt = (q < levels - 1 ? dt : 0.0) * trace[2 * q];
        const double *J0 = p->jac + i * 5, *J1 = J0 + 5;
        double band[4];
        for (int o = 0; o < 4; o++)
            band[o] = H3 * J0[1 + o] + H4 * J1[o];
        band[1] += phi_s;
        band[2] += phi_t;
        for (int o = 0; o < 4; o++) {
            long j = i - 1 + o;
            if (j >= 0 && j < n)
                g[j] += band[o] * wt;
        }
        double off = (H3 * 0.0 + H4 * 0.0) * wt;
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
