/* Step loops of the state march and of the adjoint march.
 *
 * `marchlib` compiles this file with `-O2 -ffp-contract=off` and calls it
 * through ctypes. Each loop does the operations of the numpy code it
 * replaced in the same order, one IEEE operation per numpy operation and no
 * contraction into fused multiply-adds, and solves with the LAPACK routine
 * dgtsv whose address the caller passes in (scipy's own). So every level
 * it writes has the bits the numpy march wrote.
 *
 * Neither loop raises: each returns a stop code and the step it stopped
 * at, and the caller raises through `forward._check_levels`.
 */

#include <math.h>

typedef void dgtsv_fn(const int *n, const int *nrhs, double *dl, double *d,
                      double *du, double *b, const int *ldb, int *info);

/* A `pchip.Pchip` as the marches read it: its interval table (9 rows of
 * `intervals` entries: left knot, c0, c1, c2, c3, right knot, right value,
 * left and right slope), the knot range, the clamping tolerance and 1/h. */
typedef struct {
    const double *table;
    long intervals;
    double lo, hi, tol, inv_h;
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

/* The value `pchip.march_evaluator` gives at x: np.maximum(x, lo) and
 * np.minimum(., hi), which propagate NaN and return the bound on a tie,
 * then Horner in the local coordinate, and the right value on the right
 * knot. It skips the evaluator's left-knot and outside fix-ups of the
 * value: on a left knot t = 0 gives c0 already (for values without
 * negative zeros, which a diffusivity never has), and a point outside is
 * clamped onto an end knot. */
static double march_value(const interp *p, double x)
{
    double xc = (isnan(x) || x > p->lo) ? x : p->lo;
    xc = (isnan(xc) || xc < p->hi) ? xc : p->hi;
    long i = interval(p, (xc - p->lo) * p->inv_h);
    double t = (xc - ROW(p, 0, i)) * p->inv_h;
    double v = ROW(p, 4, i) * t;
    v += ROW(p, 3, i);
    v *= t;
    v += ROW(p, 2, i);
    v *= t;
    v += ROW(p, 1, i);
    return xc == ROW(p, 5, i) ? ROW(p, 6, i) : v;
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

/* The state march on the (nt+1) x nx field U, whose level 0 is given.
 * Step n evaluates the diffusivity on level n, fills the bands as
 * `forward._diffusion_bands` does from the sums of neighbouring
 * diffusivities, forms the right-hand side in level n + 1 with the two wall
 * fluxes of level n, and solves it there. `work` holds 5 nx - 3 doubles.
 *
 * Returns DONE after step nt - 1; ALARM with *stop = n when a wall value of
 * level n is not finite, before any flux is evaluated there; SINGULAR with
 * *stop = n when the matrix of step n is singular. */
int forward_march(int nx, int nt, double r, double c, const interp *alpha_p,
                  const interp *b0, const interp *bL, double *U, double *work,
                  dgtsv_fn *dgtsv, int *stop)
{
    const int one = 1;
    const double half_r = 0.5 * r, inner_r = -0.5 * r, wall_r = -r;
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
 * k - 1 of `block` (k x nx) down to row 0. Step i forms psi + its source
 * row in row i (+ 0.0 where src_row[i] < 0, a level the samples miss),
 * solves it there with the bands of row i of `off` (k x 2 x (nx-1): super-
 * then sub-diagonal) and `diag` (k x nx), and carries the solved level q to
 * psi: inside q minus (pd[j] + pd[j+1]) half_ap[i, j] with pd = du[i] dq,
 * and on the walls (q - wall dq) - robin q. `pd` holds nx - 1 doubles.
 *
 * Returns DONE, or SINGULAR with *stop = i when the matrix of row i is
 * singular. */
int adjoint_block(int nx, int k, double *psi, double *block, double *off,
                  double *diag, const double *du, const double *half_ap,
                  const double *wall0, const double *wallL,
                  const double *robin0, const double *robinL,
                  const double *src, const long *src_row, double *pd,
                  dgtsv_fn *dgtsv, int *stop)
{
    const int one = 1;
    int info;

    for (int i = k - 1; i >= 0; i--) {
        double *q = block + (long)i * nx;
        double *sup = off + (long)i * 2 * (nx - 1), *sub = sup + nx - 1;
        const double *du_i = du + (long)i * (nx - 1);
        const double *h_i = half_ap + (long)i * (nx - 2);
        if (src_row[i] < 0) {
            for (int j = 0; j < nx; j++)
                q[j] = psi[j] + 0.0;
        } else {
            const double *row = src + src_row[i] * nx;
            for (int j = 0; j < nx; j++)
                q[j] = psi[j] + row[j];
        }
        dgtsv(&nx, &one, sub, diag + (long)i * nx, sup, q, &nx, &info);
        if (info != 0) {
            *stop = i;
            return SINGULAR;
        }
        for (int j = 0; j < nx - 1; j++)
            pd[j] = q[j + 1] - q[j];
        double q0 = q[0], qL = q[nx - 1], dq0 = pd[0], dqL = pd[nx - 2];
        for (int j = 0; j < nx - 1; j++)
            pd[j] *= du_i[j];
        for (int j = 0; j < nx - 2; j++)
            psi[j + 1] = q[j + 1] - (pd[j] + pd[j + 1]) * h_i[j];
        psi[0] = (q0 - wall0[i] * dq0) - robin0[i] * q0;
        psi[nx - 1] = (qL - wallL[i] * dqL) - robinL[i] * qL;
    }
    return DONE;
}
