//! PARSEC-like programs: 13 kernels mirroring each PARSEC application's
//! dominant computational pattern (Bienia et al.), sized for the x86
//! platform model.

use crate::{accumulate_f64, accumulate_i64, lcg_step, unit_float, BenchProgram, Suite};
use mlcomp_ir::{CastOp, CmpPred, Module, ModuleBuilder, Type, UnOp};

/// All 13 PARSEC-like programs.
pub fn all() -> Vec<BenchProgram> {
    vec![
        BenchProgram::new("blackscholes", Suite::Parsec, blackscholes(), 60),
        BenchProgram::new("bodytrack", Suite::Parsec, bodytrack(), 24),
        BenchProgram::new("canneal", Suite::Parsec, canneal(), 300),
        BenchProgram::new("dedup", Suite::Parsec, dedup(), 300),
        BenchProgram::new("facesim", Suite::Parsec, facesim(), 40),
        BenchProgram::new("ferret", Suite::Parsec, ferret(), 24),
        BenchProgram::new("fluidanimate", Suite::Parsec, fluidanimate(), 20),
        BenchProgram::new("freqmine", Suite::Parsec, freqmine(), 40),
        BenchProgram::new("raytrace", Suite::Parsec, raytrace(), 60),
        BenchProgram::new("streamcluster", Suite::Parsec, streamcluster(), 24),
        BenchProgram::new("swaptions", Suite::Parsec, swaptions(), 80),
        BenchProgram::new("vips", Suite::Parsec, vips(), 40),
        BenchProgram::new("x264", Suite::Parsec, x264(), 24),
    ]
}

impl BenchProgram {
    pub(crate) fn new(
        name: &'static str,
        suite: Suite,
        module: Module,
        default_scale: i64,
    ) -> BenchProgram {
        BenchProgram {
            name,
            suite,
            module,
            entry: "main",
            default_scale,
        }
    }
}

/// Black–Scholes closed-form option pricing: a flat loop evaluating
/// exp/log/sqrt and a polynomial CDF approximation per option. The metric
/// distribution is famously tight (paper Fig. 4 note ①).
fn blackscholes() -> Module {
    let mut mb = ModuleBuilder::new("blackscholes");
    // CNDF polynomial helper — small, pure, inlinable.
    let cndf = mb.declare("cndf", vec![Type::F64], Type::F64);
    mb.begin_existing(cndf);
    {
        let mut b = mb.body();
        let x = b.param(0);
        let ax = b.un(UnOp::FAbs, x);
        let t_den = b.fmul(ax, b.const_f64(0.2316419));
        let t_den1 = b.fadd(t_den, b.const_f64(1.0));
        let t = b.fdiv(b.const_f64(1.0), t_den1);
        // Horner: ((((a5 t + a4) t + a3) t + a2) t + a1) t
        let mut acc = b.const_f64(1.330274429);
        for c in [-1.821255978, 1.781477937, -0.356563782, 0.319381530] {
            let m = b.fmul(acc, t);
            acc = b.fadd(m, b.const_f64(c));
        }
        let poly = b.fmul(acc, t);
        let x2 = b.fmul(x, x);
        let e = b.fmul(x2, b.const_f64(-0.5));
        let gauss = b.exp(e);
        let ngauss = b.fmul(gauss, b.const_f64(0.39894228));
        let tail = b.fmul(ngauss, poly);
        let pos = b.fsub(b.const_f64(1.0), tail);
        let c0 = b.cmp(CmpPred::Ge, x, b.const_f64(0.0));
        let r = b.select(c0, pos, tail);
        b.ret(Some(r));
    }
    mb.finish_function();
    mb.set_internal(cndf);
    mb.set_attrs(cndf, |a| a.inline_hint = true);

    mb.begin_function("main", vec![Type::I64], Type::I64);
    {
        let mut b = mb.body();
        let acc = b.local(b.const_i64(0));
        let rng = b.local(b.const_i64(12345));
        b.for_loop(b.const_i64(0), b.param(0), 1, |b, _i| {
            let r1 = lcg_step(b, rng);
            let r2 = lcg_step(b, rng);
            let spot_u = unit_float(b, r1);
            let strike_u = unit_float(b, r2);
            let hoist_90 = b.fmul(spot_u, b.const_f64(90.0));
            let spot = b.fadd(hoist_90, b.const_f64(10.0));
            let hoist_91 = b.fmul(strike_u, b.const_f64(90.0));
            let strike = b.fadd(hoist_91, b.const_f64(10.0));
            let rate = b.const_f64(0.05);
            let vol = b.const_f64(0.2);
            let time = b.const_f64(1.0);
            let ratio = b.fdiv(spot, strike);
            let lg = b.log(ratio);
            let v2 = b.fmul(vol, vol);
            let hoist_98 = b.fmul(v2, b.const_f64(0.5));
            let drift = b.fadd(rate, hoist_98);
            let hoist_99 = b.fmul(drift, time);
            let num = b.fadd(lg, hoist_99);
            let st = b.sqrt(time);
            let den = b.fmul(vol, st);
            let d1 = b.fdiv(num, den);
            let d2 = b.fsub(d1, den);
            let n1 = b.call(cndf, vec![d1], Type::F64);
            let n2 = b.call(cndf, vec![d2], Type::F64);
            let hoist_106 = b.fmul(rate, b.const_f64(-1.0));
            let e = b.exp(hoist_106);
            let disc = b.fmul(strike, e);
            let hoist_108 = b.fmul(spot, n1);
            let hoist_114 = b.fmul(disc, n2);
            let call_price = b.fsub(hoist_108, hoist_114);
            accumulate_f64(b, acc, call_price);
        });
        let r = b.load(acc, Type::I64);
        b.ret(Some(r));
    }
    mb.finish_function();
    mb.build()
}

/// Particle-filter body tracking: per-particle weighted 3D error against
/// observations, with a conditional resample step.
fn bodytrack() -> Module {
    let mut mb = ModuleBuilder::new("bodytrack");
    let obs = mb.add_f64_table(
        "obs",
        &[
            0.3, 1.2, -0.7, 0.9, -0.2, 0.5, 1.7, -1.1, 0.4, 0.8, -0.6, 1.3,
        ],
    );
    mb.begin_function("main", vec![Type::I64], Type::I64);
    {
        let mut b = mb.body();
        let acc = b.local(b.const_i64(0));
        let rng = b.local(b.const_i64(777));
        let weight = b.local(b.const_f64(1.0));
        b.for_loop(b.const_i64(0), b.param(0), 1, |b, _p| {
            // 4 joints × 3 coordinates against the observation table.
            let err = b.local(b.const_f64(0.0));
            b.for_loop(b.const_i64(0), b.const_i64(4), 1, |b, j| {
                b.for_loop(b.const_i64(0), b.const_i64(3), 1, |b, k| {
                    let r = lcg_step(b, rng);
                    let guess = unit_float(b, r);
                    let j3 = b.mul(j, b.const_i64(3));
                    let idx = b.add(j3, k);
                    let p = b.gep(b.global_addr(obs), idx);
                    let o = b.load(p, Type::F64);
                    let d = b.fsub(guess, o);
                    let d2 = b.fmul(d, d);
                    let cur = b.load(err, Type::F64);
                    let n = b.fadd(cur, d2);
                    b.store(err, n);
                });
            });
            let e = b.load(err, Type::F64);
            let ne = b.fmul(e, b.const_f64(-0.25));
            let w = b.exp(ne);
            let cw = b.load(weight, Type::F64);
            let nw = b.fmul(cw, w);
            // Resample when the weight degenerates.
            let low = b.cmp(CmpPred::Lt, nw, b.const_f64(1e-6));
            let reset = b.select(low, b.const_f64(1.0), nw);
            b.store(weight, reset);
            accumulate_f64(b, acc, reset);
        });
        let r = b.load(acc, Type::I64);
        b.ret(Some(r));
    }
    mb.finish_function();
    mb.build()
}

/// Simulated-annealing netlist swaps: integer RNG chooses two slots in a
/// global placement array; the move is accepted on a cost test.
fn canneal() -> Module {
    let mut mb = ModuleBuilder::new("canneal");
    let place = mb.add_global("placement", 64);
    mb.begin_function("main", vec![Type::I64], Type::I64);
    {
        let mut b = mb.body();
        let acc = b.local(b.const_i64(0));
        let rng = b.local(b.const_i64(31337));
        // Initialize the placement.
        b.for_loop(b.const_i64(0), b.const_i64(64), 1, |b, i| {
            let v = b.mul(i, b.const_i64(37));
            let h = b.and(v, b.const_i64(255));
            let p = b.gep(b.global_addr(place), i);
            b.store(p, h);
        });
        b.for_loop(b.const_i64(0), b.param(0), 1, |b, step| {
            let r1 = lcg_step(b, rng);
            let r2 = lcg_step(b, rng);
            let i1 = b.and(r1, b.const_i64(63));
            let i2 = b.and(r2, b.const_i64(63));
            let p1 = b.gep(b.global_addr(place), i1);
            let p2 = b.gep(b.global_addr(place), i2);
            let v1 = b.load(p1, Type::I64);
            let v2 = b.load(p2, Type::I64);
            // Cost delta: |i1 - v2| + |i2 - v1| vs |i1 - v1| + |i2 - v2|.
            let abs = |b: &mut mlcomp_ir::FunctionBuilder, x: mlcomp_ir::Value| {
                let neg = b.sub(b.const_i64(0), x);
                let c = b.cmp(CmpPred::Lt, x, b.const_i64(0));
                b.select(c, neg, x)
            };
            let d_a = b.sub(i1, v2);
            let d_b = b.sub(i2, v1);
            let d_c = b.sub(i1, v1);
            let d_d = b.sub(i2, v2);
            let new_cost = {
                let a1 = abs(b, d_a);
                let a2 = abs(b, d_b);
                b.add(a1, a2)
            };
            let old_cost = {
                let a1 = abs(b, d_c);
                let a2 = abs(b, d_d);
                b.add(a1, a2)
            };
            // Accept improving swaps, or occasionally a worsening one
            // (annealing) keyed off the step parity.
            let better = b.cmp(CmpPred::Lt, new_cost, old_cost);
            let par = b.and(step, b.const_i64(15));
            let lucky = b.cmp(CmpPred::Eq, par, b.const_i64(0));
            let z1 = b.cast(CastOp::Zext, better, Type::I64);
            let z2 = b.cast(CastOp::Zext, lucky, Type::I64);
            let either = b.or(z1, z2);
            let take = b.cmp(CmpPred::Ne, either, b.const_i64(0));
            b.if_then(take, |b| {
                b.store(p1, v2);
                b.store(p2, v1);
            });
            let delta = b.sub(new_cost, old_cost);
            accumulate_i64(b, acc, delta);
        });
        let r = b.load(acc, Type::I64);
        b.ret(Some(r));
    }
    mb.finish_function();
    mb.build()
}

/// Content-defined chunk dedup: rolling hash over a pseudo-random stream
/// with a probing hash-table insert per chunk boundary.
fn dedup() -> Module {
    let mut mb = ModuleBuilder::new("dedup");
    let table = mb.add_global("hash_table", 128);
    mb.begin_function("main", vec![Type::I64], Type::I64);
    {
        let mut b = mb.body();
        let acc = b.local(b.const_i64(0));
        let rng = b.local(b.const_i64(555));
        let hash = b.local(b.const_i64(0));
        let dupes = b.local(b.const_i64(0));
        b.for_loop(b.const_i64(0), b.param(0), 1, |b, _i| {
            let byte = lcg_step(b, rng);
            let bv = b.and(byte, b.const_i64(255));
            let h = b.load(hash, Type::I64);
            let hm = b.mul(h, b.const_i64(257));
            let hx = b.add(hm, bv);
            let hmask = b.and(hx, b.const_i64(0xFFFF_FFFF));
            b.store(hash, hmask);
            // Chunk boundary when low bits are zero.
            let low = b.and(hmask, b.const_i64(31));
            let boundary = b.cmp(CmpPred::Eq, low, b.const_i64(0));
            b.if_then(boundary, |b| {
                let slot = b.and(hmask, b.const_i64(127));
                let p = b.gep(b.global_addr(table), slot);
                let existing = b.load(p, Type::I64);
                let hit = b.cmp(CmpPred::Eq, existing, hmask);
                let d = b.load(dupes, Type::I64);
                let z = b.cast(CastOp::Zext, hit, Type::I64);
                let nd = b.add(d, z);
                b.store(dupes, nd);
                b.store(p, hmask);
                b.store(hash, b.const_i64(0));
            });
        });
        let d = b.load(dupes, Type::I64);
        accumulate_i64(&mut b, acc, d);
        let h = b.load(hash, Type::I64);
        accumulate_i64(&mut b, acc, h);
        let r = b.load(acc, Type::I64);
        b.ret(Some(r));
    }
    mb.finish_function();
    mb.build()
}

/// Face-simulation inner physics: constant-trip 3×3 matrix–vector products
/// plus a stiffness update with square roots — dense unroll/vectorize
/// material (the paper's Fig. 4 ① outlier app).
fn facesim() -> Module {
    let mut mb = ModuleBuilder::new("facesim");
    let stiffness = mb.add_f64_table("stiffness", &[2.0, 0.3, 0.1, 0.3, 2.5, 0.2, 0.1, 0.2, 3.0]);
    mb.begin_function("main", vec![Type::I64], Type::I64);
    {
        let mut b = mb.body();
        let acc = b.local(b.const_i64(0));
        let rng = b.local(b.const_i64(99));
        let pos = b.alloca(3);
        let force = b.alloca(3);
        b.for_loop(b.const_i64(0), b.param(0), 1, |b, _n| {
            // Random node position.
            b.for_loop(b.const_i64(0), b.const_i64(3), 1, |b, k| {
                let r = lcg_step(b, rng);
                let u = unit_float(b, r);
                let p = b.gep(pos, k);
                b.store(p, u);
            });
            // force = K * pos (3x3 mat-vec, constant trip counts).
            b.for_loop(b.const_i64(0), b.const_i64(3), 1, |b, i| {
                let sum = b.local(b.const_f64(0.0));
                b.for_loop(b.const_i64(0), b.const_i64(3), 1, |b, j| {
                    let i3 = b.mul(i, b.const_i64(3));
                    let idx = b.add(i3, j);
                    let kp = b.gep(b.global_addr(stiffness), idx);
                    let kv = b.load(kp, Type::F64);
                    let pp = b.gep(pos, j);
                    let pv = b.load(pp, Type::F64);
                    let prod = b.fmul(kv, pv);
                    let c = b.load(sum, Type::F64);
                    let n = b.fadd(c, prod);
                    b.store(sum, n);
                });
                let s = b.load(sum, Type::F64);
                let fp = b.gep(force, i);
                b.store(fp, s);
            });
            // Energy = sqrt(force · force).
            let dot = b.local(b.const_f64(0.0));
            b.for_loop(b.const_i64(0), b.const_i64(3), 1, |b, i| {
                let fp = b.gep(force, i);
                let fv = b.load(fp, Type::F64);
                let sq = b.fmul(fv, fv);
                let c = b.load(dot, Type::F64);
                let n = b.fadd(c, sq);
                b.store(dot, n);
            });
            let d = b.load(dot, Type::F64);
            let e = b.sqrt(d);
            accumulate_f64(b, acc, e);
        });
        let r = b.load(acc, Type::I64);
        b.ret(Some(r));
    }
    mb.finish_function();
    mb.build()
}

/// Content-based similarity search: L2 distances between a query and a
/// database of feature rows with running top-1 selection.
fn ferret() -> Module {
    let mut mb = ModuleBuilder::new("ferret");
    let db: Vec<f64> = (0..64).map(|i| ((i * 37 % 101) as f64) / 101.0).collect();
    let db_g = mb.add_f64_table("feature_db", &db);
    mb.begin_function("main", vec![Type::I64], Type::I64);
    {
        let mut b = mb.body();
        let acc = b.local(b.const_i64(0));
        let rng = b.local(b.const_i64(4242));
        let query = b.alloca(8);
        b.for_loop(b.const_i64(0), b.param(0), 1, |b, _q| {
            b.for_loop(b.const_i64(0), b.const_i64(8), 1, |b, k| {
                let r = lcg_step(b, rng);
                let u = unit_float(b, r);
                let p = b.gep(query, k);
                b.store(p, u);
            });
            let best = b.local(b.const_f64(1e18));
            let best_i = b.local(b.const_i64(-1));
            b.for_loop(b.const_i64(0), b.const_i64(8), 1, |b, row| {
                let dist = b.local(b.const_f64(0.0));
                b.for_loop(b.const_i64(0), b.const_i64(8), 1, |b, k| {
                    let r8 = b.mul(row, b.const_i64(8));
                    let idx = b.add(r8, k);
                    let dp = b.gep(b.global_addr(db_g), idx);
                    let dv = b.load(dp, Type::F64);
                    let qp = b.gep(query, k);
                    let qv = b.load(qp, Type::F64);
                    let d = b.fsub(dv, qv);
                    let d2 = b.fmul(d, d);
                    let c = b.load(dist, Type::F64);
                    let n = b.fadd(c, d2);
                    b.store(dist, n);
                });
                let dv = b.load(dist, Type::F64);
                let bv = b.load(best, Type::F64);
                let closer = b.cmp(CmpPred::Lt, dv, bv);
                b.if_then(closer, |b| {
                    b.store(best, dv);
                    b.store(best_i, row);
                });
            });
            let bi = b.load(best_i, Type::I64);
            accumulate_i64(b, acc, bi);
        });
        let r = b.load(acc, Type::I64);
        b.ret(Some(r));
    }
    mb.finish_function();
    mb.build()
}

/// Grid fluid step: a 1D-flattened 8×8 five-point stencil with two
/// buffers, swapped via memcpy each iteration.
fn fluidanimate() -> Module {
    let mut mb = ModuleBuilder::new("fluidanimate");
    let grid = mb.add_global("grid", 64);
    let next = mb.add_global("next", 64);
    mb.begin_function("main", vec![Type::I64], Type::I64);
    {
        let mut b = mb.body();
        let acc = b.local(b.const_i64(0));
        // Seed the grid.
        b.for_loop(b.const_i64(0), b.const_i64(64), 1, |b, i| {
            let v = b.mul(i, i);
            let f = b.cast(CastOp::SiToFp, v, Type::F64);
            let s = b.fmul(f, b.const_f64(0.01));
            let p = b.gep(b.global_addr(grid), i);
            b.store(p, s);
        });
        b.for_loop(b.const_i64(0), b.param(0), 1, |b, _t| {
            b.for_loop(b.const_i64(1), b.const_i64(7), 1, |b, y| {
                b.for_loop(b.const_i64(1), b.const_i64(7), 1, |b, x| {
                    let y8 = b.mul(y, b.const_i64(8));
                    let c_idx = b.add(y8, x);
                    let load_at = |b: &mut mlcomp_ir::FunctionBuilder, idx: mlcomp_ir::Value| {
                        let p = b.gep(b.global_addr(grid), idx);
                        b.load(p, Type::F64)
                    };
                    let center = load_at(b, c_idx);
                    let l_idx = b.sub(c_idx, b.const_i64(1));
                    let r_idx = b.add(c_idx, b.const_i64(1));
                    let u_idx = b.sub(c_idx, b.const_i64(8));
                    let d_idx = b.add(c_idx, b.const_i64(8));
                    let left = load_at(b, l_idx);
                    let right = load_at(b, r_idx);
                    let up = load_at(b, u_idx);
                    let down = load_at(b, d_idx);
                    let s1 = b.fadd(left, right);
                    let s2 = b.fadd(up, down);
                    let s = b.fadd(s1, s2);
                    let diff = b.fmul(s, b.const_f64(0.25));
                    let delta = b.fsub(diff, center);
                    let relaxed = b.fmul(delta, b.const_f64(0.6));
                    let nv = b.fadd(center, relaxed);
                    let np = b.gep(b.global_addr(next), c_idx);
                    b.store(np, nv);
                });
            });
            b.memcpy(b.global_addr(grid), b.global_addr(next), b.const_i64(64));
        });
        // Checksum center cell.
        let p = b.gep(b.global_addr(grid), b.const_i64(27));
        let v = b.load(p, Type::F64);
        accumulate_f64(&mut b, acc, v);
        let r = b.load(acc, Type::I64);
        b.ret(Some(r));
    }
    mb.finish_function();
    mb.build()
}

/// Frequent-itemset counting: histogram of synthetic transactions and
/// pair-count upper triangle — integer heavy with nested loops.
fn freqmine() -> Module {
    let mut mb = ModuleBuilder::new("freqmine");
    let hist = mb.add_global("hist", 32);
    let pairs = mb.add_global("pairs", 64);
    mb.begin_function("main", vec![Type::I64], Type::I64);
    {
        let mut b = mb.body();
        let acc = b.local(b.const_i64(0));
        let rng = b.local(b.const_i64(2024));
        let txn = b.alloca(8);
        b.for_loop(b.const_i64(0), b.param(0), 1, |b, _t| {
            // Build an 8-item transaction.
            b.for_loop(b.const_i64(0), b.const_i64(8), 1, |b, k| {
                let r = lcg_step(b, rng);
                let item = b.and(r, b.const_i64(31));
                let p = b.gep(txn, k);
                b.store(p, item);
                let hp = b.gep(b.global_addr(hist), item);
                let h = b.load(hp, Type::I64);
                let h1 = b.add(h, b.const_i64(1));
                b.store(hp, h1);
            });
            // Count co-occurring low-id pairs.
            b.for_loop(b.const_i64(0), b.const_i64(8), 1, |b, i| {
                b.for_loop(b.const_i64(0), b.const_i64(8), 1, |b, j| {
                    let gt = b.cmp(CmpPred::Gt, j, i);
                    b.if_then(gt, |b| {
                        let pi = b.gep(txn, i);
                        let pj = b.gep(txn, j);
                        let a = b.load(pi, Type::I64);
                        let c = b.load(pj, Type::I64);
                        let both_small = {
                            let ca = b.cmp(CmpPred::Lt, a, b.const_i64(8));
                            let cc = b.cmp(CmpPred::Lt, c, b.const_i64(8));
                            let za = b.cast(CastOp::Zext, ca, Type::I64);
                            let zc = b.cast(CastOp::Zext, cc, Type::I64);
                            let both = b.and(za, zc);
                            b.cmp(CmpPred::Ne, both, b.const_i64(0))
                        };
                        b.if_then(both_small, |b| {
                            let a8 = b.mul(a, b.const_i64(8));
                            let idx = b.add(a8, c);
                            let idx2 = b.and(idx, b.const_i64(63));
                            let pp = b.gep(b.global_addr(pairs), idx2);
                            let v = b.load(pp, Type::I64);
                            let v1 = b.add(v, b.const_i64(1));
                            b.store(pp, v1);
                        });
                    });
                });
            });
        });
        // Fold histograms into the checksum.
        b.for_loop(b.const_i64(0), b.const_i64(32), 1, |b, i| {
            let hp = b.gep(b.global_addr(hist), i);
            let h = b.load(hp, Type::I64);
            accumulate_i64(b, acc, h);
        });
        let r = b.load(acc, Type::I64);
        b.ret(Some(r));
    }
    mb.finish_function();
    mb.build()
}

/// Ray–sphere intersection: per-ray quadratic discriminant with a branch
/// on hit/miss and shading math on the hit path.
fn raytrace() -> Module {
    let mut mb = ModuleBuilder::new("raytrace");
    let spheres = mb.add_f64_table(
        "spheres", // (cx, cy, cz, r) × 4
        &[
            0.0, 0.0, 5.0, 1.0, 2.0, 1.0, 8.0, 2.0, -3.0, -1.0, 12.0, 1.5, 1.0, -2.0, 7.0, 0.8,
        ],
    );
    mb.begin_function("main", vec![Type::I64], Type::I64);
    {
        let mut b = mb.body();
        let acc = b.local(b.const_i64(0));
        let rng = b.local(b.const_i64(1111));
        b.for_loop(b.const_i64(0), b.param(0), 1, |b, _ray| {
            let r1 = lcg_step(b, rng);
            let r2 = lcg_step(b, rng);
            let u1 = unit_float(b, r1);
            let u2 = unit_float(b, r2);
            let dx = b.fsub(u1, b.const_f64(0.5));
            let dy = b.fsub(u2, b.const_f64(0.5));
            let dz = b.const_f64(1.0);
            let hit_depth = b.local(b.const_f64(1e18));
            b.for_loop(b.const_i64(0), b.const_i64(4), 1, |b, s| {
                let base = b.mul(s, b.const_i64(4));
                let ld = |b: &mut mlcomp_ir::FunctionBuilder, off: i64| {
                    let i = b.add(base, b.const_i64(off));
                    let p = b.gep(b.global_addr(spheres), i);
                    b.load(p, Type::F64)
                };
                let cx = ld(b, 0);
                let cy = ld(b, 1);
                let cz = ld(b, 2);
                let rad = ld(b, 3);
                // b_coef = -2 (d · c); c_coef = |c|² - r²; a = |d|²
                let ddot = {
                    let xx = b.fmul(dx, dx);
                    let yy = b.fmul(dy, dy);
                    let zz = b.fmul(dz, dz);
                    let s1 = b.fadd(xx, yy);
                    b.fadd(s1, zz)
                };
                let dc = {
                    let xx = b.fmul(dx, cx);
                    let yy = b.fmul(dy, cy);
                    let zz = b.fmul(dz, cz);
                    let s1 = b.fadd(xx, yy);
                    b.fadd(s1, zz)
                };
                let cc = {
                    let xx = b.fmul(cx, cx);
                    let yy = b.fmul(cy, cy);
                    let zz = b.fmul(cz, cz);
                    let s1 = b.fadd(xx, yy);
                    b.fadd(s1, zz)
                };
                let r2v = b.fmul(rad, rad);
                let c_coef = b.fsub(cc, r2v);
                let disc = {
                    let dc2 = b.fmul(dc, dc);
                    let ac = b.fmul(ddot, c_coef);
                    b.fsub(dc2, ac)
                };
                let hit = b.cmp(CmpPred::Gt, disc, b.const_f64(0.0));
                b.if_then(hit, |b| {
                    let sq = b.sqrt(disc);
                    let hoist_597 = b.fsub(dc, sq);
                    let t = b.fdiv(hoist_597, ddot);
                    let front = b.cmp(CmpPred::Gt, t, b.const_f64(0.0));
                    b.if_then(front, |b| {
                        let cur = b.load(hit_depth, Type::F64);
                        let nearer = b.cmp(CmpPred::Lt, t, cur);
                        let nv = b.select(nearer, t, cur);
                        b.store(hit_depth, nv);
                    });
                });
            });
            let d = b.load(hit_depth, Type::F64);
            let missed = b.cmp(CmpPred::Gt, d, b.const_f64(1e17));
            let shade = b.select(missed, b.const_f64(0.0), d);
            accumulate_f64(b, acc, shade);
        });
        let r = b.load(acc, Type::I64);
        b.ret(Some(r));
    }
    mb.finish_function();
    mb.build()
}

/// Streaming k-means assignment: distance to 4 centers, argmin, online
/// center drift.
fn streamcluster() -> Module {
    let mut mb = ModuleBuilder::new("streamcluster");
    let centers = mb.add_global("centers", 8); // 4 centers × 2 dims
    mb.begin_function("main", vec![Type::I64], Type::I64);
    {
        let mut b = mb.body();
        let acc = b.local(b.const_i64(0));
        let rng = b.local(b.const_i64(808));
        // Spread the initial centers.
        b.for_loop(b.const_i64(0), b.const_i64(8), 1, |b, i| {
            let f = b.cast(CastOp::SiToFp, i, Type::F64);
            let v = b.fmul(f, b.const_f64(0.125));
            let p = b.gep(b.global_addr(centers), i);
            b.store(p, v);
        });
        b.for_loop(b.const_i64(0), b.param(0), 1, |b, _pt| {
            let r1 = lcg_step(b, rng);
            let r2 = lcg_step(b, rng);
            let px = unit_float(b, r1);
            let py = unit_float(b, r2);
            let best = b.local(b.const_f64(1e18));
            let best_k = b.local(b.const_i64(0));
            b.for_loop(b.const_i64(0), b.const_i64(4), 1, |b, k| {
                let k2 = b.mul(k, b.const_i64(2));
                let cxp = b.gep(b.global_addr(centers), k2);
                let k2p1 = b.add(k2, b.const_i64(1));
                let cyp = b.gep(b.global_addr(centers), k2p1);
                let cx = b.load(cxp, Type::F64);
                let cy = b.load(cyp, Type::F64);
                let ddx = b.fsub(px, cx);
                let ddy = b.fsub(py, cy);
                let d2 = {
                    let xx = b.fmul(ddx, ddx);
                    let yy = b.fmul(ddy, ddy);
                    b.fadd(xx, yy)
                };
                let cur = b.load(best, Type::F64);
                let better = b.cmp(CmpPred::Lt, d2, cur);
                b.if_then(better, |b| {
                    b.store(best, d2);
                    b.store(best_k, k);
                });
            });
            // Drift the winning center toward the point.
            let k = b.load(best_k, Type::I64);
            let k2 = b.mul(k, b.const_i64(2));
            let cxp = b.gep(b.global_addr(centers), k2);
            let k2p1 = b.add(k2, b.const_i64(1));
            let cyp = b.gep(b.global_addr(centers), k2p1);
            let cx = b.load(cxp, Type::F64);
            let cy = b.load(cyp, Type::F64);
            let nx = {
                let d = b.fsub(px, cx);
                let step = b.fmul(d, b.const_f64(0.05));
                b.fadd(cx, step)
            };
            let ny = {
                let d = b.fsub(py, cy);
                let step = b.fmul(d, b.const_f64(0.05));
                b.fadd(cy, step)
            };
            b.store(cxp, nx);
            b.store(cyp, ny);
            let bd = b.load(best, Type::F64);
            accumulate_f64(b, acc, bd);
        });
        let r = b.load(acc, Type::I64);
        b.ret(Some(r));
    }
    mb.finish_function();
    mb.build()
}

/// Monte-Carlo swaption pricing: simulated short-rate paths with an
/// exponential discount and max(payoff, 0).
fn swaptions() -> Module {
    let mut mb = ModuleBuilder::new("swaptions");
    mb.begin_function("main", vec![Type::I64], Type::I64);
    {
        let mut b = mb.body();
        let acc = b.local(b.const_i64(0));
        let rng = b.local(b.const_i64(321));
        b.for_loop(b.const_i64(0), b.param(0), 1, |b, _path| {
            let rate = b.local(b.const_f64(0.04));
            let discount = b.local(b.const_f64(1.0));
            b.for_loop(b.const_i64(0), b.const_i64(12), 1, |b, _m| {
                let r = lcg_step(b, rng);
                let u = unit_float(b, r);
                let shock = b.fsub(u, b.const_f64(0.5));
                let scaled = b.fmul(shock, b.const_f64(0.02));
                let cur = b.load(rate, Type::F64);
                let hoist_712 = b.fsub(b.const_f64(0.04), cur);
                let drift = b.fmul(hoist_712, b.const_f64(0.1));
                let n1 = b.fadd(cur, drift);
                let n2 = b.fadd(n1, scaled);
                b.store(rate, n2);
                let d = b.load(discount, Type::F64);
                let neg = b.fmul(n2, b.const_f64(-1.0 / 12.0));
                let e = b.exp(neg);
                let nd = b.fmul(d, e);
                b.store(discount, nd);
            });
            let finald = b.load(discount, Type::F64);
            let finalr = b.load(rate, Type::F64);
            let payoff = b.fsub(finalr, b.const_f64(0.045));
            let pos = b.cmp(CmpPred::Gt, payoff, b.const_f64(0.0));
            let clamped = b.select(pos, payoff, b.const_f64(0.0));
            let value = b.fmul(clamped, finald);
            accumulate_f64(b, acc, value);
        });
        let r = b.load(acc, Type::I64);
        b.ret(Some(r));
    }
    mb.finish_function();
    mb.build()
}

/// Image pipeline: per-pixel linear transform with saturation branches and
/// a horizontal 3-tap convolution over a line buffer.
fn vips() -> Module {
    let mut mb = ModuleBuilder::new("vips");
    let line = mb.add_global("line", 64);
    mb.begin_function("main", vec![Type::I64], Type::I64);
    {
        let mut b = mb.body();
        let acc = b.local(b.const_i64(0));
        let rng = b.local(b.const_i64(6060));
        b.for_loop(b.const_i64(0), b.param(0), 1, |b, _row| {
            // Fill the line with brightness-adjusted pixels.
            b.for_loop(b.const_i64(0), b.const_i64(64), 1, |b, x| {
                let r = lcg_step(b, rng);
                let px = b.and(r, b.const_i64(255));
                let scaled = b.mul(px, b.const_i64(3));
                let shifted = b.sdiv(scaled, b.const_i64(2));
                let over = b.cmp(CmpPred::Gt, shifted, b.const_i64(255));
                let sat = b.select(over, b.const_i64(255), shifted);
                let p = b.gep(b.global_addr(line), x);
                b.store(p, sat);
            });
            // 3-tap blur, accumulate edges.
            b.for_loop(b.const_i64(1), b.const_i64(63), 1, |b, x| {
                let xm = b.sub(x, b.const_i64(1));
                let xp = b.add(x, b.const_i64(1));
                let pl = b.gep(b.global_addr(line), xm);
                let pc = b.gep(b.global_addr(line), x);
                let pr = b.gep(b.global_addr(line), xp);
                let l = b.load(pl, Type::I64);
                let cv = b.load(pc, Type::I64);
                let r = b.load(pr, Type::I64);
                let c2 = b.mul(cv, b.const_i64(2));
                let s1 = b.add(l, c2);
                let s = b.add(s1, r);
                let blur = b.sdiv(s, b.const_i64(4));
                accumulate_i64(b, acc, blur);
            });
        });
        let r = b.load(acc, Type::I64);
        b.ret(Some(r));
    }
    mb.finish_function();
    mb.build()
}

/// H.264 motion-estimation SAD: sum of absolute differences between a
/// current 4×4 block and candidate reference blocks, tracking the best
/// candidate — pure integer, branch and memory heavy.
fn x264() -> Module {
    let mut mb = ModuleBuilder::new("x264");
    let frame = mb.add_global("frame", 128);
    mb.begin_function("main", vec![Type::I64], Type::I64);
    {
        let mut b = mb.body();
        let acc = b.local(b.const_i64(0));
        let rng = b.local(b.const_i64(264));
        // Fill the synthetic frame.
        b.for_loop(b.const_i64(0), b.const_i64(128), 1, |b, i| {
            let r = lcg_step(b, rng);
            let px = b.and(r, b.const_i64(255));
            let p = b.gep(b.global_addr(frame), i);
            b.store(p, px);
        });
        b.for_loop(b.const_i64(0), b.param(0), 1, |b, mb_i| {
            let cur_base = b.and(mb_i, b.const_i64(63));
            let best_sad = b.local(b.const_i64(1 << 40));
            b.for_loop(b.const_i64(0), b.const_i64(8), 1, |b, cand| {
                let ref_base = {
                    let c8 = b.mul(cand, b.const_i64(8));
                    b.and(c8, b.const_i64(63))
                };
                let sad = b.local(b.const_i64(0));
                b.for_loop(b.const_i64(0), b.const_i64(16), 1, |b, k| {
                    let ci = b.add(cur_base, k);
                    let ri = b.add(ref_base, k);
                    let cp = b.gep(b.global_addr(frame), ci);
                    let rp = b.gep(b.global_addr(frame), ri);
                    let cv = b.load(cp, Type::I64);
                    let rv = b.load(rp, Type::I64);
                    let d = b.sub(cv, rv);
                    let neg = b.sub(b.const_i64(0), d);
                    let is_neg = b.cmp(CmpPred::Lt, d, b.const_i64(0));
                    let ad = b.select(is_neg, neg, d);
                    let s = b.load(sad, Type::I64);
                    let ns = b.add(s, ad);
                    b.store(sad, ns);
                });
                let s = b.load(sad, Type::I64);
                let cur_best = b.load(best_sad, Type::I64);
                let better = b.cmp(CmpPred::Lt, s, cur_best);
                b.if_then(better, |b| {
                    b.store(best_sad, s);
                });
            });
            let bs = b.load(best_sad, Type::I64);
            accumulate_i64(b, acc, bs);
        });
        let r = b.load(acc, Type::I64);
        b.ret(Some(r));
    }
    mb.finish_function();
    mb.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlcomp_ir::verify;

    #[test]
    fn all_verify() {
        for p in all() {
            verify(&p.module).unwrap_or_else(|e| panic!("{}: {e}", p.name));
        }
    }

    #[test]
    fn blackscholes_prices_are_sane() {
        let p = all()
            .into_iter()
            .find(|p| p.name == "blackscholes")
            .unwrap();
        // Different scales give different checksums (the loop matters).
        let entry = p.module.find_function("main").unwrap();
        let a = mlcomp_ir::Interpreter::new(&p.module)
            .run(entry, &[mlcomp_ir::RtVal::I(10)])
            .unwrap();
        let b = mlcomp_ir::Interpreter::new(&p.module)
            .run(entry, &[mlcomp_ir::RtVal::I(20)])
            .unwrap();
        assert_ne!(a.ret, b.ret);
        assert!(
            b.counts.fp_special > a.counts.fp_special,
            "exp/log/sqrt used"
        );
    }

    #[test]
    fn optimization_preserves_every_checksum() {
        use mlcomp_passes::{PassManager, PipelineLevel};
        for p in all() {
            let reference = p.run_default().unwrap();
            for level in [PipelineLevel::O2, PipelineLevel::O3, PipelineLevel::Oz] {
                let mut opt = p.clone();
                let report = PassManager::new().run_level(&mut opt.module, level);
                assert!(
                    report.quarantine.is_empty(),
                    "{} under {level}: {report:?}",
                    p.name
                );
                let got = opt
                    .run_default()
                    .unwrap_or_else(|e| panic!("{} trapped after {level}: {e}", p.name));
                assert_eq!(got, reference, "{} diverged under {level}", p.name);
            }
        }
    }

    #[test]
    fn o3_speeds_up_the_suite() {
        use mlcomp_passes::{PassManager, PipelineLevel};
        let mut faster = 0;
        let mut total = 0;
        for p in all() {
            let entry = p.module.find_function("main").unwrap();
            let base = mlcomp_ir::Interpreter::new(&p.module)
                .run(entry, &p.default_args())
                .unwrap()
                .counts
                .total_instructions();
            let mut opt = p.clone();
            PassManager::new().run_level(&mut opt.module, PipelineLevel::O3);
            let entry = opt.module.find_function("main").unwrap();
            let after = mlcomp_ir::Interpreter::new(&opt.module)
                .run(entry, &opt.default_args())
                .unwrap()
                .counts
                .total_instructions();
            total += 1;
            if after < base {
                faster += 1;
            }
        }
        assert!(
            faster * 10 >= total * 9,
            "O3 should cut dynamic instructions on ≥90% of PARSEC ({faster}/{total})"
        );
    }
}
