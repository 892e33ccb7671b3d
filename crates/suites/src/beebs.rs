//! BEEBS-like programs: 24 embedded kernels mirroring the BEEBS suite
//! (Pallister et al.), sized for the RISC-V platform model. Integer- and
//! control-heavy, small working sets, many constant trip counts.

use crate::{accumulate_f64, accumulate_i64, lcg_step, unit_float, BenchProgram, Suite};
use mlcomp_ir::{CastOp, CmpPred, FunctionBuilder, Module, ModuleBuilder, Type, Value};

/// All 24 BEEBS-like programs.
pub fn all() -> Vec<BenchProgram> {
    vec![
        BenchProgram::new("aha-compress", Suite::Beebs, aha_compress(), 400),
        BenchProgram::new("bubblesort", Suite::Beebs, bubblesort(), 12),
        BenchProgram::new("crc32", Suite::Beebs, crc32(), 600),
        BenchProgram::new("cubic", Suite::Beebs, cubic(), 150),
        BenchProgram::new("dijkstra", Suite::Beebs, dijkstra(), 30),
        BenchProgram::new("edn", Suite::Beebs, edn(), 40),
        BenchProgram::new("fasta", Suite::Beebs, fasta(), 500),
        BenchProgram::new("fibcall", Suite::Beebs, fibcall(), 15),
        BenchProgram::new("fir", Suite::Beebs, fir(), 60),
        BenchProgram::new("insertsort", Suite::Beebs, insertsort(), 30),
        BenchProgram::new("janne_complex", Suite::Beebs, janne_complex(), 250),
        BenchProgram::new("jfdctint", Suite::Beebs, jfdctint(), 50),
        BenchProgram::new("levenshtein", Suite::Beebs, levenshtein(), 25),
        BenchProgram::new("matmult-int", Suite::Beebs, matmult_int(), 12),
        BenchProgram::new("matmult-float", Suite::Beebs, matmult_float(), 12),
        BenchProgram::new("mergesort", Suite::Beebs, mergesort(), 20),
        BenchProgram::new("minver", Suite::Beebs, minver(), 80),
        BenchProgram::new("nbody", Suite::Beebs, nbody(), 60),
        BenchProgram::new("ndes", Suite::Beebs, ndes(), 120),
        BenchProgram::new("arcfour", Suite::Beebs, arcfour(), 300),
        BenchProgram::new("nsichneu", Suite::Beebs, nsichneu(), 400),
        BenchProgram::new("prime", Suite::Beebs, prime(), 120),
        BenchProgram::new("qsort", Suite::Beebs, qsort(), 20),
        BenchProgram::new("stats", Suite::Beebs, stats(), 100),
    ]
}

/// Fills `buf[0..n]` with LCG values masked by `mask`.
fn fill_random(b: &mut FunctionBuilder<'_>, rng: Value, buf: Value, n: i64, mask: i64) {
    b.for_loop(b.const_i64(0), b.const_i64(n), 1, move |b, i| {
        let r = lcg_step(b, rng);
        let v = b.and(r, b.const_i64(mask));
        let p = b.gep(buf, i);
        b.store(p, v);
    });
}

/// AHA bit-compression tricks: population-count-style folding over words.
fn aha_compress() -> Module {
    let mut mb = ModuleBuilder::new("aha-compress");
    mb.begin_function("main", vec![Type::I64], Type::I64);
    {
        let mut b = mb.body();
        let acc = b.local(b.const_i64(0));
        let rng = b.local(b.const_i64(1));
        b.for_loop(b.const_i64(0), b.param(0), 1, |b, _i| {
            let w = lcg_step(b, rng);
            // Parallel popcount.
            let m1 = b.and(w, b.const_i64(0x5555_5555));
            let s1 = b.lshr(w, b.const_i64(1));
            let m2 = b.and(s1, b.const_i64(0x5555_5555));
            let t1 = b.add(m1, m2);
            let a1 = b.and(t1, b.const_i64(0x3333_3333));
            let s2 = b.lshr(t1, b.const_i64(2));
            let a2 = b.and(s2, b.const_i64(0x3333_3333));
            let t2 = b.add(a1, a2);
            let s3 = b.lshr(t2, b.const_i64(4));
            let t3 = b.add(t2, s3);
            let pc = b.and(t3, b.const_i64(0x0F0F_0F0F));
            // Compress: keep words with many bits.
            let dense = b.cmp(CmpPred::Gt, pc, b.const_i64(0x0808_0000));
            let compressed = b.select(dense, w, pc);
            accumulate_i64(b, acc, compressed);
        });
        let r = b.load(acc, Type::I64);
        b.ret(Some(r));
    }
    mb.finish_function();
    mb.build()
}

/// Classic O(n²) bubble sort over a 24-element buffer, re-shuffled per
/// outer round.
fn bubblesort() -> Module {
    let mut mb = ModuleBuilder::new("bubblesort");
    mb.begin_function("main", vec![Type::I64], Type::I64);
    {
        let mut b = mb.body();
        let acc = b.local(b.const_i64(0));
        let rng = b.local(b.const_i64(9));
        let buf = b.alloca(24);
        b.for_loop(b.const_i64(0), b.param(0), 1, |b, _round| {
            fill_random(b, rng, buf, 24, 0xFFFF);
            b.for_loop(b.const_i64(0), b.const_i64(23), 1, |b, i| {
                let lim = b.sub(b.const_i64(23), i);
                b.for_loop(b.const_i64(0), lim, 1, |b, j| {
                    let j1 = b.add(j, b.const_i64(1));
                    let pj = b.gep(buf, j);
                    let pj1 = b.gep(buf, j1);
                    let a = b.load(pj, Type::I64);
                    let c = b.load(pj1, Type::I64);
                    let swap = b.cmp(CmpPred::Gt, a, c);
                    b.if_then(swap, |b| {
                        b.store(pj, c);
                        b.store(pj1, a);
                    });
                });
            });
            let p0 = b.gep(buf, b.const_i64(0));
            let p23 = b.gep(buf, b.const_i64(23));
            let lo = b.load(p0, Type::I64);
            let hi = b.load(p23, Type::I64);
            accumulate_i64(b, acc, lo);
            accumulate_i64(b, acc, hi);
        });
        let r = b.load(acc, Type::I64);
        b.ret(Some(r));
    }
    mb.finish_function();
    mb.build()
}

/// Table-driven CRC32 over a pseudo-random byte stream.
fn crc32() -> Module {
    let mut mb = ModuleBuilder::new("crc32");
    // Precompute the polynomial table as constant data.
    let mut table = Vec::with_capacity(256);
    for n in 0..256u64 {
        let mut c = n;
        for _ in 0..8 {
            c = if c & 1 != 0 {
                0xEDB88320 ^ (c >> 1)
            } else {
                c >> 1
            };
        }
        table.push(c as i64);
    }
    let tab = mb.add_const_global("crc_table", table);
    mb.begin_function("main", vec![Type::I64], Type::I64);
    {
        let mut b = mb.body();
        let acc = b.local(b.const_i64(0));
        let rng = b.local(b.const_i64(32));
        let crc = b.local(b.const_i64(0xFFFF_FFFF));
        b.for_loop(b.const_i64(0), b.param(0), 1, |b, _i| {
            let byte = lcg_step(b, rng);
            let bv = b.and(byte, b.const_i64(255));
            let c = b.load(crc, Type::I64);
            let x = b.xor(c, bv);
            let idx = b.and(x, b.const_i64(255));
            let p = b.gep(b.global_addr(tab), idx);
            let t = b.load(p, Type::I64);
            let sh = b.lshr(c, b.const_i64(8));
            let n = b.xor(t, sh);
            let n32 = b.and(n, b.const_i64(0xFFFF_FFFF));
            b.store(crc, n32);
        });
        let c = b.load(crc, Type::I64);
        accumulate_i64(&mut b, acc, c);
        let r = b.load(acc, Type::I64);
        b.ret(Some(r));
    }
    mb.finish_function();
    mb.build()
}

/// Cubic root finding by Newton iteration on random cubics.
fn cubic() -> Module {
    let mut mb = ModuleBuilder::new("cubic");
    mb.begin_function("main", vec![Type::I64], Type::I64);
    {
        let mut b = mb.body();
        let acc = b.local(b.const_i64(0));
        let rng = b.local(b.const_i64(3));
        b.for_loop(b.const_i64(0), b.param(0), 1, |b, _i| {
            let r1 = lcg_step(b, rng);
            let a = unit_float(b, r1);
            // f(x) = x³ + a·x − 5 ; Newton from x = 2.
            let x = b.local(b.const_f64(2.0));
            b.for_loop(b.const_i64(0), b.const_i64(8), 1, |b, _it| {
                let xv = b.load(x, Type::F64);
                let x2 = b.fmul(xv, xv);
                let x3 = b.fmul(x2, xv);
                let ax = b.fmul(a, xv);
                let fx = {
                    let s = b.fadd(x3, ax);
                    b.fsub(s, b.const_f64(5.0))
                };
                let dfx = {
                    let t = b.fmul(x2, b.const_f64(3.0));
                    b.fadd(t, a)
                };
                let step = b.fdiv(fx, dfx);
                let nx = b.fsub(xv, step);
                b.store(x, nx);
            });
            let root = b.load(x, Type::F64);
            accumulate_f64(b, acc, root);
        });
        let r = b.load(acc, Type::I64);
        b.ret(Some(r));
    }
    mb.finish_function();
    mb.build()
}

/// Dijkstra over a dense 12-node graph (adjacency matrix).
fn dijkstra() -> Module {
    let mut mb = ModuleBuilder::new("dijkstra");
    const N: i64 = 12;
    let mut adj = Vec::with_capacity((N * N) as usize);
    for i in 0..N {
        for j in 0..N {
            let w = if i == j {
                0
            } else {
                ((i * 7 + j * 13) % 19) + 1
            };
            adj.push(w);
        }
    }
    let g = mb.add_const_global("adj", adj);
    mb.begin_function("main", vec![Type::I64], Type::I64);
    {
        let mut b = mb.body();
        let acc = b.local(b.const_i64(0));
        let dist = b.alloca(N as u32);
        let seen = b.alloca(N as u32);
        b.for_loop(b.const_i64(0), b.param(0), 1, |b, round| {
            let src = b.srem(round, b.const_i64(N));
            // Init.
            b.for_loop(b.const_i64(0), b.const_i64(N), 1, |b, i| {
                let dp = b.gep(dist, i);
                b.store(dp, b.const_i64(1 << 30));
                let sp = b.gep(seen, i);
                b.store(sp, b.const_i64(0));
            });
            let sdp = b.gep(dist, src);
            b.store(sdp, b.const_i64(0));
            b.for_loop(b.const_i64(0), b.const_i64(N), 1, |b, _k| {
                // Pick the unseen node with the smallest distance.
                let best = b.local(b.const_i64(1 << 30));
                let best_i = b.local(b.const_i64(-1));
                b.for_loop(b.const_i64(0), b.const_i64(N), 1, |b, i| {
                    let sp = b.gep(seen, i);
                    let s = b.load(sp, Type::I64);
                    let unseen = b.cmp(CmpPred::Eq, s, b.const_i64(0));
                    b.if_then(unseen, |b| {
                        let dp = b.gep(dist, i);
                        let d = b.load(dp, Type::I64);
                        let cur = b.load(best, Type::I64);
                        let better = b.cmp(CmpPred::Lt, d, cur);
                        b.if_then(better, |b| {
                            b.store(best, d);
                            b.store(best_i, i);
                        });
                    });
                });
                let u = b.load(best_i, Type::I64);
                let valid = b.cmp(CmpPred::Ge, u, b.const_i64(0));
                b.if_then(valid, |b| {
                    let sp = b.gep(seen, u);
                    b.store(sp, b.const_i64(1));
                    let du = {
                        let dp = b.gep(dist, u);
                        b.load(dp, Type::I64)
                    };
                    b.for_loop(b.const_i64(0), b.const_i64(N), 1, |b, v| {
                        let un = b.mul(u, b.const_i64(N));
                        let idx = b.add(un, v);
                        let wp = b.gep(b.global_addr(g), idx);
                        let w = b.load(wp, Type::I64);
                        let cand = b.add(du, w);
                        let dp = b.gep(dist, v);
                        let dv = b.load(dp, Type::I64);
                        let closer = b.cmp(CmpPred::Lt, cand, dv);
                        let nv = b.select(closer, cand, dv);
                        b.store(dp, nv);
                    });
                });
            });
            // Checksum the farthest node.
            let last = b.sub(b.const_i64(N), b.const_i64(1));
            let lp = b.gep(dist, last);
            let d = b.load(lp, Type::I64);
            accumulate_i64(b, acc, d);
        });
        let r = b.load(acc, Type::I64);
        b.ret(Some(r));
    }
    mb.finish_function();
    mb.build()
}

/// EDN DSP kernel: fixed-point dot products and a MAC-heavy FIR section.
fn edn() -> Module {
    let mut mb = ModuleBuilder::new("edn");
    let coeffs: Vec<i64> = (0..16).map(|i| ((i * 23) % 31) - 15).collect();
    let cg = mb.add_const_global("coeffs", coeffs);
    mb.begin_function("main", vec![Type::I64], Type::I64);
    {
        let mut b = mb.body();
        let acc = b.local(b.const_i64(0));
        let rng = b.local(b.const_i64(16));
        let data = b.alloca(64);
        b.for_loop(b.const_i64(0), b.param(0), 1, |b, _blk| {
            fill_random(b, rng, data, 64, 0xFFF);
            b.for_loop(b.const_i64(0), b.const_i64(48), 1, |b, n| {
                let sum = b.local(b.const_i64(0));
                b.for_loop(b.const_i64(0), b.const_i64(16), 1, |b, k| {
                    let di = b.add(n, k);
                    let dp = b.gep(data, di);
                    let d = b.load(dp, Type::I64);
                    let cp = b.gep(b.global_addr(cg), k);
                    let cv = b.load(cp, Type::I64);
                    let prod = b.mul(d, cv);
                    let s = b.load(sum, Type::I64);
                    let ns = b.add(s, prod);
                    b.store(sum, ns);
                });
                let s = b.load(sum, Type::I64);
                let scaled = b.bin(mlcomp_ir::BinOp::AShr, s, b.const_i64(4));
                accumulate_i64(b, acc, scaled);
            });
        });
        let r = b.load(acc, Type::I64);
        b.ret(Some(r));
    }
    mb.finish_function();
    mb.build()
}

/// DNA sequence synthesis: weighted nucleotide selection from cumulative
/// probabilities with a small lookup loop.
fn fasta() -> Module {
    let mut mb = ModuleBuilder::new("fasta");
    let cumw = mb.add_const_global("cum_weights", vec![300, 540, 770, 1024]);
    mb.begin_function("main", vec![Type::I64], Type::I64);
    {
        let mut b = mb.body();
        let acc = b.local(b.const_i64(0));
        let rng = b.local(b.const_i64(8));
        let counts = b.alloca(4);
        b.memset(counts, b.const_i64(0), b.const_i64(4));
        b.for_loop(b.const_i64(0), b.param(0), 1, |b, _i| {
            let r = lcg_step(b, rng);
            let roll = b.and(r, b.const_i64(1023));
            let pick = b.local(b.const_i64(3));
            // Linear scan of cumulative weights (early-exit style flag).
            let found = b.local(b.const_i64(0));
            b.for_loop(b.const_i64(0), b.const_i64(4), 1, |b, k| {
                let fp = b.load(found, Type::I64);
                let not_found = b.cmp(CmpPred::Eq, fp, b.const_i64(0));
                b.if_then(not_found, |b| {
                    let wp = b.gep(b.global_addr(cumw), k);
                    let w = b.load(wp, Type::I64);
                    let below = b.cmp(CmpPred::Lt, roll, w);
                    b.if_then(below, |b| {
                        b.store(pick, k);
                        b.store(found, b.const_i64(1));
                    });
                });
            });
            let k = b.load(pick, Type::I64);
            let cp = b.gep(counts, k);
            let c = b.load(cp, Type::I64);
            let c1 = b.add(c, b.const_i64(1));
            b.store(cp, c1);
        });
        b.for_loop(b.const_i64(0), b.const_i64(4), 1, |b, k| {
            let cp = b.gep(counts, k);
            let c = b.load(cp, Type::I64);
            accumulate_i64(b, acc, c);
        });
        let r = b.load(acc, Type::I64);
        b.ret(Some(r));
    }
    mb.finish_function();
    mb.build()
}

/// Recursive Fibonacci — the classic inlining/tail-call playground.
fn fibcall() -> Module {
    let mut mb = ModuleBuilder::new("fibcall");
    let fib = mb.declare("fib", vec![Type::I64], Type::I64);
    mb.begin_existing(fib);
    {
        let mut b = mb.body();
        let c = b.cmp(CmpPred::Lt, b.param(0), b.const_i64(2));
        let v = b.if_else(
            c,
            Type::I64,
            |b| b.param(0),
            |b| {
                let n1 = b.sub(b.param(0), b.const_i64(1));
                let n2 = b.sub(b.param(0), b.const_i64(2));
                let a = b.call(fib, vec![n1], Type::I64);
                let c2 = b.call(fib, vec![n2], Type::I64);
                b.add(a, c2)
            },
        );
        b.ret(Some(v));
    }
    mb.finish_function();
    mb.set_internal(fib);
    mb.begin_function("main", vec![Type::I64], Type::I64);
    {
        let mut b = mb.body();
        let acc = b.local(b.const_i64(0));
        b.for_loop(b.const_i64(0), b.const_i64(6), 1, |b, i| {
            let raw = b.add(b.param(0), i);
            let n = b.srem(raw, b.const_i64(16));
            let neg = b.cmp(CmpPred::Lt, n, b.const_i64(0));
            let guarded = b.select(neg, b.const_i64(10), n);
            let v = b.call(fib, vec![guarded], Type::I64);
            accumulate_i64(b, acc, v);
        });
        let r = b.load(acc, Type::I64);
        b.ret(Some(r));
    }
    mb.finish_function();
    mb.build()
}

/// 32-tap FIR filter over a circular buffer.
fn fir() -> Module {
    let mut mb = ModuleBuilder::new("fir");
    let taps: Vec<i64> = (0..32).map(|i| (((i * 11) % 17) - 8) as i64).collect();
    let tg = mb.add_const_global("taps", taps);
    mb.begin_function("main", vec![Type::I64], Type::I64);
    {
        let mut b = mb.body();
        let acc = b.local(b.const_i64(0));
        let rng = b.local(b.const_i64(31));
        let hist = b.alloca(32);
        b.memset(hist, b.const_i64(0), b.const_i64(32));
        let head = b.local(b.const_i64(0));
        b.for_loop(b.const_i64(0), b.param(0), 1, |b, _n| {
            let x = lcg_step(b, rng);
            let xv = b.and(x, b.const_i64(0xFFF));
            let h = b.load(head, Type::I64);
            let hp = b.gep(hist, h);
            b.store(hp, xv);
            let h1 = b.add(h, b.const_i64(1));
            let hw = b.and(h1, b.const_i64(31));
            b.store(head, hw);
            let y = b.local(b.const_i64(0));
            b.for_loop(b.const_i64(0), b.const_i64(32), 1, |b, k| {
                let hk = {
                    let s = b.add(h, k);
                    b.and(s, b.const_i64(31))
                };
                let sp = b.gep(hist, hk);
                let s = b.load(sp, Type::I64);
                let tp = b.gep(b.global_addr(tg), k);
                let t = b.load(tp, Type::I64);
                let prod = b.mul(s, t);
                let cur = b.load(y, Type::I64);
                let n = b.add(cur, prod);
                b.store(y, n);
            });
            let yv = b.load(y, Type::I64);
            accumulate_i64(b, acc, yv);
        });
        let r = b.load(acc, Type::I64);
        b.ret(Some(r));
    }
    mb.finish_function();
    mb.build()
}

/// Insertion sort over 20-element buffers.
fn insertsort() -> Module {
    let mut mb = ModuleBuilder::new("insertsort");
    mb.begin_function("main", vec![Type::I64], Type::I64);
    {
        let mut b = mb.body();
        let acc = b.local(b.const_i64(0));
        let rng = b.local(b.const_i64(20));
        let buf = b.alloca(20);
        b.for_loop(b.const_i64(0), b.param(0), 1, |b, _round| {
            fill_random(b, rng, buf, 20, 0xFFFF);
            b.for_loop(b.const_i64(1), b.const_i64(20), 1, |b, i| {
                let ip = b.gep(buf, i);
                let key = b.load(ip, Type::I64);
                let j = b.local(b.const_i64(0));
                let tmp_v = b.sub(i, b.const_i64(1));
                b.store(j, tmp_v);
                b.while_loop(
                    |b| {
                        let jv = b.load(j, Type::I64);
                        let nonneg = b.cmp(CmpPred::Ge, jv, b.const_i64(0));
                        let jp_val = {
                            let clamped = {
                                let neg = b.cmp(CmpPred::Lt, jv, b.const_i64(0));
                                b.select(neg, b.const_i64(0), jv)
                            };
                            let jp = b.gep(buf, clamped);
                            b.load(jp, Type::I64)
                        };
                        let bigger = b.cmp(CmpPred::Gt, jp_val, key);
                        let zn = b.cast(CastOp::Zext, nonneg, Type::I64);
                        let zb = b.cast(CastOp::Zext, bigger, Type::I64);
                        let both = b.and(zn, zb);
                        b.cmp(CmpPred::Ne, both, b.const_i64(0))
                    },
                    |b| {
                        let jv = b.load(j, Type::I64);
                        let jp = b.gep(buf, jv);
                        let v = b.load(jp, Type::I64);
                        let j1 = b.add(jv, b.const_i64(1));
                        let jp1 = b.gep(buf, j1);
                        b.store(jp1, v);
                        let tmp_v = b.sub(jv, b.const_i64(1));
                        b.store(j, tmp_v);
                    },
                );
                let jv = b.load(j, Type::I64);
                let slot = b.add(jv, b.const_i64(1));
                let sp = b.gep(buf, slot);
                b.store(sp, key);
            });
            let mid = b.gep(buf, b.const_i64(10));
            let v = b.load(mid, Type::I64);
            accumulate_i64(b, acc, v);
        });
        let r = b.load(acc, Type::I64);
        b.ret(Some(r));
    }
    mb.finish_function();
    mb.build()
}

/// The WCET "janne_complex" nested loop with interdependent bounds.
fn janne_complex() -> Module {
    let mut mb = ModuleBuilder::new("janne_complex");
    mb.begin_function("main", vec![Type::I64], Type::I64);
    {
        let mut b = mb.body();
        let acc = b.local(b.const_i64(0));
        b.for_loop(b.const_i64(0), b.param(0), 1, |b, r| {
            let a = b.local(b.const_i64(0));
            let x = b.local(b.const_i64(0));
            let tmp_v = b.and(r, b.const_i64(7));
            b.store(a, tmp_v);
            b.while_loop(
                |b| {
                    let av = b.load(a, Type::I64);
                    b.cmp(CmpPred::Lt, av, b.const_i64(30))
                },
                |b| {
                    let av = b.load(a, Type::I64);
                    let xv = b.load(x, Type::I64);
                    let branch = b.cmp(CmpPred::Lt, xv, b.const_i64(5));
                    let bump = b.select(branch, b.const_i64(2), b.const_i64(3));
                    let na = b.add(av, bump);
                    b.store(a, na);
                    let nx = {
                        let t = b.add(xv, b.const_i64(1));
                        b.and(t, b.const_i64(7))
                    };
                    b.store(x, nx);
                },
            );
            let av = b.load(a, Type::I64);
            accumulate_i64(b, acc, av);
        });
        let r = b.load(acc, Type::I64);
        b.ret(Some(r));
    }
    mb.finish_function();
    mb.build()
}

/// Integer 8-point DCT (JPEG forward DCT flavor): constant trip counts,
/// shift/add arithmetic — prime unrolling material.
fn jfdctint() -> Module {
    let mut mb = ModuleBuilder::new("jfdctint");
    mb.begin_function("main", vec![Type::I64], Type::I64);
    {
        let mut b = mb.body();
        let acc = b.local(b.const_i64(0));
        let rng = b.local(b.const_i64(88));
        let block = b.alloca(8);
        b.for_loop(b.const_i64(0), b.param(0), 1, |b, _blk| {
            fill_random(b, rng, block, 8, 255);
            // Butterfly stage.
            b.for_loop(b.const_i64(0), b.const_i64(4), 1, |b, i| {
                let mirror = b.sub(b.const_i64(7), i);
                let pi = b.gep(block, i);
                let pm = b.gep(block, mirror);
                let a = b.load(pi, Type::I64);
                let c = b.load(pm, Type::I64);
                let s = b.add(a, c);
                let d = b.sub(a, c);
                b.store(pi, s);
                b.store(pm, d);
            });
            // Rotation stage with fixed-point multiplies.
            b.for_loop(b.const_i64(0), b.const_i64(8), 1, |b, i| {
                let pi = b.gep(block, i);
                let v = b.load(pi, Type::I64);
                let m = b.mul(v, b.const_i64(181)); // ≈ √2/2 in Q8
                let sh = b.bin(mlcomp_ir::BinOp::AShr, m, b.const_i64(8));
                b.store(pi, sh);
                accumulate_i64(b, acc, sh);
            });
        });
        let r = b.load(acc, Type::I64);
        b.ret(Some(r));
    }
    mb.finish_function();
    mb.build()
}

/// Levenshtein distance DP over two pseudo-random 16-char strings.
fn levenshtein() -> Module {
    let mut mb = ModuleBuilder::new("levenshtein");
    const N: i64 = 16;
    mb.begin_function("main", vec![Type::I64], Type::I64);
    {
        let mut b = mb.body();
        let acc = b.local(b.const_i64(0));
        let rng = b.local(b.const_i64(14));
        let s1 = b.alloca(N as u32);
        let s2 = b.alloca(N as u32);
        let prev = b.alloca((N + 1) as u32);
        let cur = b.alloca((N + 1) as u32);
        b.for_loop(b.const_i64(0), b.param(0), 1, |b, _pair| {
            fill_random(b, rng, s1, N, 3);
            fill_random(b, rng, s2, N, 3);
            b.for_loop(b.const_i64(0), b.const_i64(N + 1), 1, |b, j| {
                let p = b.gep(prev, j);
                b.store(p, j);
            });
            b.for_loop(b.const_i64(1), b.const_i64(N + 1), 1, |b, i| {
                let cp0 = b.gep(cur, b.const_i64(0));
                b.store(cp0, i);
                b.for_loop(b.const_i64(1), b.const_i64(N + 1), 1, |b, j| {
                    let i1 = b.sub(i, b.const_i64(1));
                    let j1 = b.sub(j, b.const_i64(1));
                    let c1p = b.gep(s1, i1);
                    let c2p = b.gep(s2, j1);
                    let c1 = b.load(c1p, Type::I64);
                    let c2 = b.load(c2p, Type::I64);
                    let same = b.cmp(CmpPred::Eq, c1, c2);
                    let sub_cost = b.select(same, b.const_i64(0), b.const_i64(1));
                    let diag = {
                        let p = b.gep(prev, j1);
                        b.load(p, Type::I64)
                    };
                    let up = {
                        let p = b.gep(prev, j);
                        b.load(p, Type::I64)
                    };
                    let left = {
                        let p = b.gep(cur, j1);
                        b.load(p, Type::I64)
                    };
                    let d_sub = b.add(diag, sub_cost);
                    let d_del = b.add(up, b.const_i64(1));
                    let d_ins = b.add(left, b.const_i64(1));
                    let m1 = {
                        let c = b.cmp(CmpPred::Lt, d_sub, d_del);
                        b.select(c, d_sub, d_del)
                    };
                    let m2 = {
                        let c = b.cmp(CmpPred::Lt, m1, d_ins);
                        b.select(c, m1, d_ins)
                    };
                    let p = b.gep(cur, j);
                    b.store(p, m2);
                });
                b.memcpy(prev, cur, b.const_i64(N + 1));
            });
            let p = b.gep(prev, b.const_i64(N));
            let d = b.load(p, Type::I64);
            accumulate_i64(b, acc, d);
        });
        let r = b.load(acc, Type::I64);
        b.ret(Some(r));
    }
    mb.finish_function();
    mb.build()
}

/// Integer 8×8 matrix multiplication.
fn matmult_int() -> Module {
    matmult(false)
}

/// Float 8×8 matrix multiplication.
fn matmult_float() -> Module {
    matmult(true)
}

fn matmult(float: bool) -> Module {
    let name = if float {
        "matmult-float"
    } else {
        "matmult-int"
    };
    let mut mb = ModuleBuilder::new(name);
    const N: i64 = 8;
    mb.begin_function("main", vec![Type::I64], Type::I64);
    {
        let mut b = mb.body();
        let acc = b.local(b.const_i64(0));
        let rng = b.local(b.const_i64(64));
        let a = b.alloca((N * N) as u32);
        let c = b.alloca((N * N) as u32);
        let out = b.alloca((N * N) as u32);
        b.for_loop(b.const_i64(0), b.param(0), 1, |b, _round| {
            // Fill inputs.
            for buf in [a, c] {
                b.for_loop(b.const_i64(0), b.const_i64(N * N), 1, move |b, i| {
                    let r = lcg_step(b, rng);
                    let v = b.and(r, b.const_i64(63));
                    let p = b.gep(buf, i);
                    if float {
                        let f = b.cast(CastOp::SiToFp, v, Type::F64);
                        b.store(p, f);
                    } else {
                        b.store(p, v);
                    }
                });
            }
            b.for_loop(b.const_i64(0), b.const_i64(N), 1, |b, i| {
                b.for_loop(b.const_i64(0), b.const_i64(N), 1, |b, j| {
                    let sum = if float {
                        b.local(b.const_f64(0.0))
                    } else {
                        b.local(b.const_i64(0))
                    };
                    b.for_loop(b.const_i64(0), b.const_i64(N), 1, |b, k| {
                        let in_ = b.mul(i, b.const_i64(N));
                        let aik = b.add(in_, k);
                        let kn = b.mul(k, b.const_i64(N));
                        let bkj = b.add(kn, j);
                        let ap = b.gep(a, aik);
                        let bp = b.gep(c, bkj);
                        if float {
                            let av = b.load(ap, Type::F64);
                            let bv = b.load(bp, Type::F64);
                            let prod = b.fmul(av, bv);
                            let s = b.load(sum, Type::F64);
                            let ns = b.fadd(s, prod);
                            b.store(sum, ns);
                        } else {
                            let av = b.load(ap, Type::I64);
                            let bv = b.load(bp, Type::I64);
                            let prod = b.mul(av, bv);
                            let s = b.load(sum, Type::I64);
                            let ns = b.add(s, prod);
                            b.store(sum, ns);
                        }
                    });
                    let in_ = b.mul(i, b.const_i64(N));
                    let oij = b.add(in_, j);
                    let op = b.gep(out, oij);
                    if float {
                        let s = b.load(sum, Type::F64);
                        b.store(op, s);
                    } else {
                        let s = b.load(sum, Type::I64);
                        b.store(op, s);
                    }
                });
            });
            // Checksum the trace.
            b.for_loop(b.const_i64(0), b.const_i64(N), 1, |b, i| {
                let in1 = b.mul(i, b.const_i64(N));
                let ii = b.add(in1, i);
                let p = b.gep(out, ii);
                if float {
                    let v = b.load(p, Type::F64);
                    accumulate_f64(b, acc, v);
                } else {
                    let v = b.load(p, Type::I64);
                    accumulate_i64(b, acc, v);
                }
            });
        });
        let r = b.load(acc, Type::I64);
        b.ret(Some(r));
    }
    mb.finish_function();
    mb.build()
}

/// Recursive top-down merge sort of 32 elements (recursion + memcpy).
fn mergesort() -> Module {
    let mut mb = ModuleBuilder::new("mergesort");
    let buf = mb.add_global("ms_buf", 32);
    let tmp = mb.add_global("ms_tmp", 32);
    let sort = mb.declare("msort", vec![Type::I64, Type::I64], Type::Void);
    mb.begin_existing(sort);
    {
        let mut b = mb.body();
        let lo = b.param(0);
        let hi = b.param(1);
        let len = b.sub(hi, lo);
        let small = b.cmp(CmpPred::Le, len, b.const_i64(1));
        let done = b.new_block();
        let work = b.new_block();
        b.cond_br(small, done, work);
        b.switch_to(done);
        b.ret(None);
        b.switch_to(work);
        let half = b.bin(mlcomp_ir::BinOp::AShr, len, b.const_i64(1));
        let mid = b.add(lo, half);
        b.call(sort, vec![lo, mid], Type::Void);
        b.call(sort, vec![mid, hi], Type::Void);
        // Merge into tmp.
        let i = b.local(lo);
        let j = b.local(mid);
        let k = b.local(lo);
        b.while_loop(
            |b| {
                let kv = b.load(k, Type::I64);
                b.cmp(CmpPred::Lt, kv, hi)
            },
            |b| {
                let iv = b.load(i, Type::I64);
                let jv = b.load(j, Type::I64);
                let i_ok = b.cmp(CmpPred::Lt, iv, mid);
                let j_ok = b.cmp(CmpPred::Lt, jv, hi);
                // take_i = i_ok && (!j_ok || buf[i] <= buf[j])
                let safe_i = b.select(i_ok, iv, lo);
                let safe_j = b.select(j_ok, jv, lo);
                let biv = {
                    let p = b.gep(b.global_addr(buf), safe_i);
                    b.load(p, Type::I64)
                };
                let bjv = {
                    let p = b.gep(b.global_addr(buf), safe_j);
                    b.load(p, Type::I64)
                };
                let le = b.cmp(CmpPred::Le, biv, bjv);
                let znj = {
                    let nj = b.cast(CastOp::Zext, j_ok, Type::I64);
                    b.xor(nj, b.const_i64(1))
                };
                let zle = b.cast(CastOp::Zext, le, Type::I64);
                let pref_i = b.or(znj, zle);
                let zi = b.cast(CastOp::Zext, i_ok, Type::I64);
                let both = b.and(zi, pref_i);
                let take_i = b.cmp(CmpPred::Ne, both, b.const_i64(0));
                let chosen_idx = b.select(take_i, safe_i, safe_j);
                let cv = {
                    let p = b.gep(b.global_addr(buf), chosen_idx);
                    b.load(p, Type::I64)
                };
                let kv = b.load(k, Type::I64);
                let tp = b.gep(b.global_addr(tmp), kv);
                b.store(tp, cv);
                let ni = b.select(take_i, b.const_i64(1), b.const_i64(0));
                let nj = b.select(take_i, b.const_i64(0), b.const_i64(1));
                let tmp_v = b.add(iv, ni);
                b.store(i, tmp_v);
                let tmp_v = b.add(jv, nj);
                b.store(j, tmp_v);
                let tmp_v = b.add(kv, b.const_i64(1));
                b.store(k, tmp_v);
            },
        );
        // Copy back [lo, hi).
        let n = b.sub(hi, lo);
        let dst = b.gep(b.global_addr(buf), lo);
        let src = b.gep(b.global_addr(tmp), lo);
        b.memcpy(dst, src, n);
        b.ret(None);
    }
    mb.finish_function();
    mb.set_internal(sort);

    mb.begin_function("main", vec![Type::I64], Type::I64);
    {
        let mut b = mb.body();
        let acc = b.local(b.const_i64(0));
        let rng = b.local(b.const_i64(7));
        b.for_loop(b.const_i64(0), b.param(0), 1, |b, _round| {
            b.for_loop(b.const_i64(0), b.const_i64(32), 1, |b, i| {
                let r = lcg_step(b, rng);
                let v = b.and(r, b.const_i64(0xFFFF));
                let p = b.gep(b.global_addr(buf), i);
                b.store(p, v);
            });
            b.call(sort, vec![b.const_i64(0), b.const_i64(32)], Type::Void);
            let p0 = b.gep(b.global_addr(buf), b.const_i64(0));
            let p31 = b.gep(b.global_addr(buf), b.const_i64(31));
            let lo = b.load(p0, Type::I64);
            let hi = b.load(p31, Type::I64);
            accumulate_i64(b, acc, lo);
            accumulate_i64(b, acc, hi);
        });
        let r = b.load(acc, Type::I64);
        b.ret(Some(r));
    }
    mb.finish_function();
    mb.build()
}

/// Small-matrix inversion (Gauss–Jordan on a diagonally dominant 4×4) —
/// float division heavy.
fn minver() -> Module {
    let mut mb = ModuleBuilder::new("minver");
    const N: i64 = 4;
    mb.begin_function("main", vec![Type::I64], Type::I64);
    {
        let mut b = mb.body();
        let acc = b.local(b.const_i64(0));
        let rng = b.local(b.const_i64(44));
        let m = b.alloca((N * N) as u32);
        b.for_loop(b.const_i64(0), b.param(0), 1, |b, _round| {
            // Diagonally dominant random matrix (never singular).
            b.for_loop(b.const_i64(0), b.const_i64(N), 1, |b, i| {
                b.for_loop(b.const_i64(0), b.const_i64(N), 1, |b, j| {
                    let r = lcg_step(b, rng);
                    let u = unit_float(b, r);
                    let diag = b.cmp(CmpPred::Eq, i, j);
                    let base = b.select(diag, b.const_f64(8.0), b.const_f64(0.0));
                    let v = b.fadd(base, u);
                    let in_ = b.mul(i, b.const_i64(N));
                    let idx = b.add(in_, j);
                    let p = b.gep(m, idx);
                    b.store(p, v);
                });
            });
            // Gauss-Jordan elimination (no pivoting needed: dominant).
            b.for_loop(b.const_i64(0), b.const_i64(N), 1, |b, k| {
                let kn = b.mul(k, b.const_i64(N));
                let kk = b.add(kn, k);
                let pkk = b.gep(m, kk);
                let pivot = b.load(pkk, Type::F64);
                b.for_loop(b.const_i64(0), b.const_i64(N), 1, |b, i| {
                    let not_pivot_row = b.cmp(CmpPred::Ne, i, k);
                    b.if_then(not_pivot_row, |b| {
                        let in_ = b.mul(i, b.const_i64(N));
                        let ik = b.add(in_, k);
                        let pik = b.gep(m, ik);
                        let factor_num = b.load(pik, Type::F64);
                        let factor = b.fdiv(factor_num, pivot);
                        b.for_loop(b.const_i64(0), b.const_i64(N), 1, |b, j| {
                            let kj = b.add(kn, j);
                            let ij = b.add(in_, j);
                            let pkj = b.gep(m, kj);
                            let pij = b.gep(m, ij);
                            let row_k = b.load(pkj, Type::F64);
                            let row_i = b.load(pij, Type::F64);
                            let scaled = b.fmul(factor, row_k);
                            let nv = b.fsub(row_i, scaled);
                            b.store(pij, nv);
                        });
                    });
                });
            });
            // Checksum the diagonal.
            b.for_loop(b.const_i64(0), b.const_i64(N), 1, |b, i| {
                let in_ = b.mul(i, b.const_i64(N));
                let ii = b.add(in_, i);
                let p = b.gep(m, ii);
                let v = b.load(p, Type::F64);
                accumulate_f64(b, acc, v);
            });
        });
        let r = b.load(acc, Type::I64);
        b.ret(Some(r));
    }
    mb.finish_function();
    mb.build()
}

/// 4-body gravitational step: pairwise inverse-square forces with sqrt.
fn nbody() -> Module {
    let mut mb = ModuleBuilder::new("nbody");
    const N: i64 = 4;
    mb.begin_function("main", vec![Type::I64], Type::I64);
    {
        let mut b = mb.body();
        let acc = b.local(b.const_i64(0));
        let pos = b.alloca((N * 2) as u32);
        let vel = b.alloca((N * 2) as u32);
        // Initial configuration.
        b.for_loop(b.const_i64(0), b.const_i64(N * 2), 1, |b, i| {
            let f = b.cast(CastOp::SiToFp, i, Type::F64);
            let v = b.fmul(f, b.const_f64(0.37));
            let p = b.gep(pos, i);
            b.store(p, v);
            let vp = b.gep(vel, i);
            b.store(vp, b.const_f64(0.0));
        });
        b.for_loop(b.const_i64(0), b.param(0), 1, |b, _step| {
            b.for_loop(b.const_i64(0), b.const_i64(N), 1, |b, i| {
                let fx = b.local(b.const_f64(0.0));
                let fy = b.local(b.const_f64(0.0));
                b.for_loop(b.const_i64(0), b.const_i64(N), 1, |b, j| {
                    let other = b.cmp(CmpPred::Ne, i, j);
                    b.if_then(other, |b| {
                        let i2 = b.mul(i, b.const_i64(2));
                        let j2 = b.mul(j, b.const_i64(2));
                        let ld = |b: &mut FunctionBuilder, base: Value, off: Value, extra: i64| {
                            let o = b.add(off, b.const_i64(extra));
                            let p = b.gep(base, o);
                            b.load(p, Type::F64)
                        };
                        let xi = ld(b, pos, i2, 0);
                        let yi = ld(b, pos, i2, 1);
                        let xj = ld(b, pos, j2, 0);
                        let yj = ld(b, pos, j2, 1);
                        let dx = b.fsub(xj, xi);
                        let dy = b.fsub(yj, yi);
                        let d2 = {
                            let xx = b.fmul(dx, dx);
                            let yy = b.fmul(dy, dy);
                            let s = b.fadd(xx, yy);
                            b.fadd(s, b.const_f64(0.01)) // softening
                        };
                        let d = b.sqrt(d2);
                        let d3 = b.fmul(d2, d);
                        let inv = b.fdiv(b.const_f64(1.0), d3);
                        let fxv = b.load(fx, Type::F64);
                        let dfx = b.fmul(dx, inv);
                        let tmp_v = b.fadd(fxv, dfx);
                        b.store(fx, tmp_v);
                        let fyv = b.load(fy, Type::F64);
                        let dfy = b.fmul(dy, inv);
                        let tmp_v = b.fadd(fyv, dfy);
                        b.store(fy, tmp_v);
                    });
                });
                let i2 = b.mul(i, b.const_i64(2));
                let vxp = b.gep(vel, i2);
                let i2p1 = b.add(i2, b.const_i64(1));
                let vyp = b.gep(vel, i2p1);
                let vx = b.load(vxp, Type::F64);
                let vy = b.load(vyp, Type::F64);
                let fxv = b.load(fx, Type::F64);
                let fyv = b.load(fy, Type::F64);
                let dt = b.const_f64(0.001);
                let hoist_1032 = b.fmul(fxv, dt);
                let tmp_v = b.fadd(vx, hoist_1032);
                b.store(vxp, tmp_v);
                let hoist_1034 = b.fmul(fyv, dt);
                let tmp_v = b.fadd(vy, hoist_1034);
                b.store(vyp, tmp_v);
            });
            // Integrate positions.
            b.for_loop(b.const_i64(0), b.const_i64(N * 2), 1, |b, i| {
                let pp = b.gep(pos, i);
                let vp = b.gep(vel, i);
                let p = b.load(pp, Type::F64);
                let v = b.load(vp, Type::F64);
                let hoist_1043 = b.fmul(v, b.const_f64(0.001));
                let np = b.fadd(p, hoist_1043);
                b.store(pp, np);
            });
        });
        b.for_loop(b.const_i64(0), b.const_i64(N * 2), 1, |b, i| {
            let pp = b.gep(pos, i);
            let v = b.load(pp, Type::F64);
            accumulate_f64(b, acc, v);
        });
        let r = b.load(acc, Type::I64);
        b.ret(Some(r));
    }
    mb.finish_function();
    mb.build()
}

/// DES-flavored bit permutation rounds: xor/shift/mask networks with a
/// key schedule table.
fn ndes() -> Module {
    let mut mb = ModuleBuilder::new("ndes");
    let keys: Vec<i64> = (0..16)
        .map(|i| (0x0F0F_1357_9BDF_2468u64.rotate_left(i as u32)) as i64)
        .collect();
    let kg = mb.add_const_global("round_keys", keys);
    mb.begin_function("main", vec![Type::I64], Type::I64);
    {
        let mut b = mb.body();
        let acc = b.local(b.const_i64(0));
        let rng = b.local(b.const_i64(56));
        b.for_loop(b.const_i64(0), b.param(0), 1, |b, _blk| {
            let r0 = lcg_step(b, rng);
            let r1 = lcg_step(b, rng);
            let left = b.local(r0);
            let right = b.local(r1);
            b.for_loop(b.const_i64(0), b.const_i64(16), 1, |b, round| {
                let kp = b.gep(b.global_addr(kg), round);
                let key = b.load(kp, Type::I64);
                let rv = b.load(right, Type::I64);
                // Feistel F: expand, key-mix, substitute-ish.
                let e1 = b.shl(rv, b.const_i64(1));
                let e2 = b.lshr(rv, b.const_i64(31));
                let expanded = b.or(e1, e2);
                let mixed = b.xor(expanded, key);
                let s1 = b.and(mixed, b.const_i64(0x0F0F_0F0F));
                let s2 = {
                    let t = b.lshr(mixed, b.const_i64(4));
                    b.and(t, b.const_i64(0x0F0F_0F0F))
                };
                let subbed = b.add(s1, s2);
                let lv = b.load(left, Type::I64);
                let nl = b.xor(lv, subbed);
                b.store(left, rv);
                b.store(right, nl);
            });
            let lv = b.load(left, Type::I64);
            let rv = b.load(right, Type::I64);
            accumulate_i64(b, acc, lv);
            accumulate_i64(b, acc, rv);
        });
        let r = b.load(acc, Type::I64);
        b.ret(Some(r));
    }
    mb.finish_function();
    mb.build()
}

/// RC4-style stream cipher: state array swaps and keystream bytes.
fn arcfour() -> Module {
    let mut mb = ModuleBuilder::new("arcfour");
    let state = mb.add_global("s_box", 64);
    mb.begin_function("main", vec![Type::I64], Type::I64);
    {
        let mut b = mb.body();
        let acc = b.local(b.const_i64(0));
        // KSA over a 64-entry state.
        b.for_loop(b.const_i64(0), b.const_i64(64), 1, |b, i| {
            let p = b.gep(b.global_addr(state), i);
            b.store(p, i);
        });
        let jv = b.local(b.const_i64(0));
        b.for_loop(b.const_i64(0), b.const_i64(64), 1, |b, i| {
            let key_byte = {
                let k = b.mul(i, b.const_i64(17));
                b.and(k, b.const_i64(63))
            };
            let pi = b.gep(b.global_addr(state), i);
            let si = b.load(pi, Type::I64);
            let j0 = b.load(jv, Type::I64);
            let j1 = b.add(j0, si);
            let j2 = b.add(j1, key_byte);
            let j3 = b.and(j2, b.const_i64(63));
            b.store(jv, j3);
            let pj = b.gep(b.global_addr(state), j3);
            let sj = b.load(pj, Type::I64);
            b.store(pi, sj);
            b.store(pj, si);
        });
        // PRGA.
        let i = b.local(b.const_i64(0));
        let j = b.local(b.const_i64(0));
        b.for_loop(b.const_i64(0), b.param(0), 1, |b, _n| {
            let iv = b.load(i, Type::I64);
            let ni = {
                let t = b.add(iv, b.const_i64(1));
                b.and(t, b.const_i64(63))
            };
            b.store(i, ni);
            let pi = b.gep(b.global_addr(state), ni);
            let si = b.load(pi, Type::I64);
            let jv0 = b.load(j, Type::I64);
            let nj = {
                let t = b.add(jv0, si);
                b.and(t, b.const_i64(63))
            };
            b.store(j, nj);
            let pj = b.gep(b.global_addr(state), nj);
            let sj = b.load(pj, Type::I64);
            b.store(pi, sj);
            b.store(pj, si);
            let sum = {
                let t = b.add(si, sj);
                b.and(t, b.const_i64(63))
            };
            let pk = b.gep(b.global_addr(state), sum);
            let k = b.load(pk, Type::I64);
            accumulate_i64(b, acc, k);
        });
        let r = b.load(acc, Type::I64);
        b.ret(Some(r));
    }
    mb.finish_function();
    mb.build()
}

/// Petri-net state machine (nsichneu flavor): a big switch over state with
/// branchy transitions — the code-size stressor.
fn nsichneu() -> Module {
    let mut mb = ModuleBuilder::new("nsichneu");
    mb.begin_function("main", vec![Type::I64], Type::I64);
    {
        let mut b = mb.body();
        let acc = b.local(b.const_i64(0));
        let rng = b.local(b.const_i64(11));
        let st = b.local(b.const_i64(0));
        b.for_loop(b.const_i64(0), b.param(0), 1, |b, _t| {
            let r = lcg_step(b, rng);
            let input = b.and(r, b.const_i64(3));
            let s = b.load(st, Type::I64);
            // 8-state machine as a switch; each case computes a distinct
            // next state.
            let exit = b.new_block();
            let mut cases = Vec::new();
            let default = b.new_block();
            for _k in 0..8 {
                cases.push(b.new_block());
            }
            let case_list: Vec<(i64, mlcomp_ir::BlockId)> =
                (0..8).map(|k| (k as i64, cases[k])).collect();
            b.switch(s, case_list, default);
            for (k, &cb) in cases.iter().enumerate() {
                b.switch_to(cb);
                let k64 = k as i64;
                let twist = b.mul(input, b.const_i64(k64 + 1));
                let mix = b.add(twist, b.const_i64((k64 * 3 + 1) % 8));
                let ns = b.and(mix, b.const_i64(7));
                b.store(st, ns);
                accumulate_i64(b, acc, ns);
                b.br(exit);
            }
            b.switch_to(default);
            b.store(st, b.const_i64(0));
            b.br(exit);
            b.switch_to(exit);
        });
        let r = b.load(acc, Type::I64);
        b.ret(Some(r));
    }
    mb.finish_function();
    mb.build()
}

/// Trial-division primality over odd candidates — div/rem heavy.
fn prime() -> Module {
    let mut mb = ModuleBuilder::new("prime");
    mb.begin_function("main", vec![Type::I64], Type::I64);
    {
        let mut b = mb.body();
        let acc = b.local(b.const_i64(0));
        let primes = b.local(b.const_i64(0));
        b.for_loop(b.const_i64(0), b.param(0), 1, |b, i| {
            let cand = {
                let t = b.mul(i, b.const_i64(2));
                b.add(t, b.const_i64(3)) // 3, 5, 7, ...
            };
            let is_prime = b.local(b.const_i64(1));
            let d = b.local(b.const_i64(3));
            b.while_loop(
                |b| {
                    let dv = b.load(d, Type::I64);
                    let dd = b.mul(dv, dv);
                    let in_range = b.cmp(CmpPred::Le, dd, cand);
                    let flag = b.load(is_prime, Type::I64);
                    let alive = b.cmp(CmpPred::Ne, flag, b.const_i64(0));
                    let z1 = b.cast(CastOp::Zext, in_range, Type::I64);
                    let z2 = b.cast(CastOp::Zext, alive, Type::I64);
                    let both = b.and(z1, z2);
                    b.cmp(CmpPred::Ne, both, b.const_i64(0))
                },
                |b| {
                    let dv = b.load(d, Type::I64);
                    let rem = b.srem(cand, dv);
                    let divides = b.cmp(CmpPred::Eq, rem, b.const_i64(0));
                    b.if_then(divides, |b| {
                        b.store(is_prime, b.const_i64(0));
                    });
                    let tmp_v = b.add(dv, b.const_i64(2));
                    b.store(d, tmp_v);
                },
            );
            let even = {
                let r2 = b.srem(cand, b.const_i64(2));
                b.cmp(CmpPred::Eq, r2, b.const_i64(0))
            };
            let flag = b.load(is_prime, Type::I64);
            let odd_prime = b.select(even, b.const_i64(0), flag);
            let p = b.load(primes, Type::I64);
            let np = b.add(p, odd_prime);
            b.store(primes, np);
        });
        let p = b.load(primes, Type::I64);
        accumulate_i64(&mut b, acc, p);
        let r = b.load(acc, Type::I64);
        b.ret(Some(r));
    }
    mb.finish_function();
    mb.build()
}

/// Recursive quicksort (Lomuto partition) of 32-element buffers.
fn qsort() -> Module {
    let mut mb = ModuleBuilder::new("qsort");
    let buf = mb.add_global("qs_buf", 32);
    let sort = mb.declare("qs", vec![Type::I64, Type::I64], Type::Void);
    mb.begin_existing(sort);
    {
        let mut b = mb.body();
        let lo = b.param(0);
        let hi = b.param(1);
        let trivial = b.cmp(CmpPred::Ge, lo, hi);
        let done = b.new_block();
        let work = b.new_block();
        b.cond_br(trivial, done, work);
        b.switch_to(done);
        b.ret(None);
        b.switch_to(work);
        let pvp = b.gep(b.global_addr(buf), hi);
        let pivot = b.load(pvp, Type::I64);
        let store_idx = b.local(lo);
        b.for_loop(lo, hi, 1, |b, j| {
            let pj = b.gep(b.global_addr(buf), j);
            let vj = b.load(pj, Type::I64);
            let small = b.cmp(CmpPred::Lt, vj, pivot);
            b.if_then(small, |b| {
                let si = b.load(store_idx, Type::I64);
                let ps = b.gep(b.global_addr(buf), si);
                let vs = b.load(ps, Type::I64);
                b.store(ps, vj);
                b.store(pj, vs);
                let tmp_v = b.add(si, b.const_i64(1));
                b.store(store_idx, tmp_v);
            });
        });
        let si = b.load(store_idx, Type::I64);
        let ps = b.gep(b.global_addr(buf), si);
        let vs = b.load(ps, Type::I64);
        b.store(ps, pivot);
        b.store(pvp, vs);
        let left_hi = b.sub(si, b.const_i64(1));
        let right_lo = b.add(si, b.const_i64(1));
        b.call(sort, vec![lo, left_hi], Type::Void);
        b.call(sort, vec![right_lo, hi], Type::Void);
        b.ret(None);
    }
    mb.finish_function();
    mb.set_internal(sort);

    mb.begin_function("main", vec![Type::I64], Type::I64);
    {
        let mut b = mb.body();
        let acc = b.local(b.const_i64(0));
        let rng = b.local(b.const_i64(42));
        b.for_loop(b.const_i64(0), b.param(0), 1, |b, _round| {
            b.for_loop(b.const_i64(0), b.const_i64(32), 1, |b, i| {
                let r = lcg_step(b, rng);
                let v = b.and(r, b.const_i64(0xFFFF));
                let p = b.gep(b.global_addr(buf), i);
                b.store(p, v);
            });
            b.call(sort, vec![b.const_i64(0), b.const_i64(31)], Type::Void);
            let p0 = b.gep(b.global_addr(buf), b.const_i64(0));
            let p16 = b.gep(b.global_addr(buf), b.const_i64(16));
            let v0 = b.load(p0, Type::I64);
            let v16 = b.load(p16, Type::I64);
            accumulate_i64(b, acc, v0);
            accumulate_i64(b, acc, v16);
        });
        let r = b.load(acc, Type::I64);
        b.ret(Some(r));
    }
    mb.finish_function();
    mb.build()
}

/// Descriptive statistics: mean, variance and correlation of two synthetic
/// series with sqrt at the end.
fn stats() -> Module {
    let mut mb = ModuleBuilder::new("stats");
    mb.begin_function("main", vec![Type::I64], Type::I64);
    {
        let mut b = mb.body();
        let acc = b.local(b.const_i64(0));
        let rng = b.local(b.const_i64(17));
        b.for_loop(b.const_i64(0), b.param(0), 1, |b, _set| {
            let sum_x = b.local(b.const_f64(0.0));
            let sum_y = b.local(b.const_f64(0.0));
            let sum_xx = b.local(b.const_f64(0.0));
            let sum_yy = b.local(b.const_f64(0.0));
            let sum_xy = b.local(b.const_f64(0.0));
            b.for_loop(b.const_i64(0), b.const_i64(32), 1, |b, _i| {
                let r1 = lcg_step(b, rng);
                let r2 = lcg_step(b, rng);
                let x = unit_float(b, r1);
                let noise = unit_float(b, r2);
                let y = {
                    let half = b.fmul(noise, b.const_f64(0.5));
                    let corr = b.fmul(x, b.const_f64(0.8));
                    b.fadd(corr, half)
                };
                let upd = |b: &mut FunctionBuilder, cell: Value, v: Value| {
                    let c = b.load(cell, Type::F64);
                    let n = b.fadd(c, v);
                    b.store(cell, n);
                };
                upd(b, sum_x, x);
                upd(b, sum_y, y);
                let xx = b.fmul(x, x);
                upd(b, sum_xx, xx);
                let yy = b.fmul(y, y);
                upd(b, sum_yy, yy);
                let xy = b.fmul(x, y);
                upd(b, sum_xy, xy);
            });
            let n = b.const_f64(32.0);
            let hoist_1394 = b.load(sum_x, Type::F64);
            let mx = b.fdiv(hoist_1394, n);
            let hoist_1395 = b.load(sum_y, Type::F64);
            let my = b.fdiv(hoist_1395, n);
            let var_x = {
                let hoist_1397 = b.load(sum_xx, Type::F64);
                let e2 = b.fdiv(hoist_1397, n);
                let m2 = b.fmul(mx, mx);
                b.fsub(e2, m2)
            };
            let var_y = {
                let hoist_1402 = b.load(sum_yy, Type::F64);
                let e2 = b.fdiv(hoist_1402, n);
                let m2 = b.fmul(my, my);
                b.fsub(e2, m2)
            };
            let cov = {
                let hoist_1407 = b.load(sum_xy, Type::F64);
                let exy = b.fdiv(hoist_1407, n);
                let mm = b.fmul(mx, my);
                b.fsub(exy, mm)
            };
            let denom = {
                let p = b.fmul(var_x, var_y);
                let g = b.fadd(p, b.const_f64(1e-12));
                b.sqrt(g)
            };
            let corr = b.fdiv(cov, denom);
            accumulate_f64(b, acc, corr);
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
    fn all_verify_and_run() {
        for p in all() {
            verify(&p.module).unwrap_or_else(|e| panic!("{}: {e}", p.name));
            p.run_default()
                .unwrap_or_else(|e| panic!("{} trapped: {e}", p.name));
        }
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
    fn recursive_kernels_use_calls() {
        for name in ["fibcall", "mergesort", "qsort"] {
            let p = all().into_iter().find(|p| p.name == name).unwrap();
            let feats = mlcomp_features::extract(&p.module);
            assert!(feats.get("n_recursive_functions") >= 1.0, "{name}");
        }
    }
}
