//! Persistent red-black tree (Table II: "Insert/delete to RB-Tree").
//!
//! A CLRS red-black tree with a sentinel `nil` node, stored entirely in
//! simulated PM: every field read goes through the execution context and
//! every field write through the undo-logging runtime, so each insert or
//! delete (including rotations and fixups) is one failure-atomic region.
//!
//! The post-recovery checker validates the full red-black invariant set:
//! binary-search-tree ordering, no red node with a red child, equal black
//! heights, parent-pointer consistency, and a black root.

use rand::rngs::SmallRng;
use rand::Rng;

use sw_lang::{FuncCtx, ThreadRuntime};
use sw_model::isa::LockId;
use sw_pmem::{Addr, Bump, PmImage};

use crate::Workload;

/// The single lock serializing tree operations.
const TREE_LOCK: LockId = LockId(2);
/// Application work per operation, in cycles.
const OP_COMPUTE: u32 = 2200;
/// Key space for inserts.
const KEY_SPACE: u64 = 10_000;
/// Node-pool lines pre-touched at setup.
const POOL_LINES: u64 = 4096;
/// Node-pool arena carved from the allocator (one line per node; sized
/// well past any run length this workload sees).
const ARENA_LINES: u64 = 65_536;

const F_KEY: u64 = 0;
const F_VAL: u64 = 1;
const F_COLOR: u64 = 2;
const F_LEFT: u64 = 3;
const F_RIGHT: u64 = 4;
const F_PARENT: u64 = 5;

const BLACK: u64 = 0;
const RED: u64 = 1;

fn val_of(key: u64) -> u64 {
    key.wrapping_mul(3)
}

/// The child field on the other side of `side` (`F_LEFT` or `F_RIGHT`).
fn opposite(side: u64) -> u64 {
    F_LEFT + F_RIGHT - side
}

/// See the module documentation.
#[derive(Debug)]
pub struct RbTreeWorkload {
    root_ptr: Addr,
    nil: u64,
    pool: Option<Bump>,
    pool_start: u64,
    /// Volatile mirror of the key set, used only to pick delete targets.
    keys: Vec<u64>,
}

/// Borrowed mutation context: the tree helpers thread these through.
struct Mut<'a, 'b> {
    ctx: &'a mut FuncCtx,
    rt: &'b mut ThreadRuntime,
    tid: usize,
}

impl Default for RbTreeWorkload {
    fn default() -> Self {
        Self::new()
    }
}

impl RbTreeWorkload {
    /// Creates an uninitialized workload; call [`Workload::setup`].
    pub fn new() -> Self {
        Self {
            root_ptr: Addr::NULL,
            nil: 0,
            pool: None,
            pool_start: 0,
            keys: Vec::new(),
        }
    }

    fn field(n: u64, f: u64) -> Addr {
        Addr(n).offset_words(f)
    }

    fn get(m: &mut Mut<'_, '_>, n: u64, f: u64) -> u64 {
        m.rt.load(m.ctx, Self::field(n, f))
    }

    fn set(m: &mut Mut<'_, '_>, n: u64, f: u64, v: u64) {
        m.rt.store(m.ctx, Self::field(n, f), v);
    }

    fn root(&self, m: &mut Mut<'_, '_>) -> u64 {
        m.rt.load(m.ctx, self.root_ptr)
    }

    fn set_root(&self, m: &mut Mut<'_, '_>, n: u64) {
        m.rt.store(m.ctx, self.root_ptr, n);
    }

    /// Rotates the subtree at `x` toward `side` (`F_LEFT` for a left
    /// rotation): `x`'s child on the opposite side takes its place, and
    /// `x` becomes that child's `side` child.
    fn rotate(&self, m: &mut Mut<'_, '_>, x: u64, side: u64) {
        let other = opposite(side);
        let y = Self::get(m, x, other);
        let inner = Self::get(m, y, side);
        Self::set(m, x, other, inner);
        if inner != self.nil {
            Self::set(m, inner, F_PARENT, x);
        }
        let xp = Self::get(m, x, F_PARENT);
        Self::set(m, y, F_PARENT, xp);
        if xp == self.nil {
            self.set_root(m, y);
        } else if Self::get(m, xp, side) == x {
            Self::set(m, xp, side, y);
        } else {
            Self::set(m, xp, other, y);
        }
        Self::set(m, y, side, x);
        Self::set(m, x, F_PARENT, y);
    }

    fn insert(&mut self, m: &mut Mut<'_, '_>, key: u64) {
        let mut y = self.nil;
        let mut x = self.root(m);
        while x != self.nil {
            y = x;
            let k = Self::get(m, x, F_KEY);
            if key == k {
                Self::set(m, x, F_VAL, val_of(key));
                return;
            }
            x = if key < k {
                Self::get(m, x, F_LEFT)
            } else {
                Self::get(m, x, F_RIGHT)
            };
        }
        let z = self.pool.as_mut().expect("setup ran").alloc_lines(1).raw();
        {
            let m = &mut *m;
            Self::set(m, z, F_KEY, key);
            Self::set(m, z, F_VAL, val_of(key));
            Self::set(m, z, F_COLOR, RED);
            Self::set(m, z, F_LEFT, self.nil);
            Self::set(m, z, F_RIGHT, self.nil);
            Self::set(m, z, F_PARENT, y);
        }
        if y == self.nil {
            self.set_root(m, z);
        } else if key < Self::get(m, y, F_KEY) {
            Self::set(m, y, F_LEFT, z);
        } else {
            Self::set(m, y, F_RIGHT, z);
        }
        self.insert_fixup(m, z);
        self.keys.push(key);
    }

    fn insert_fixup(&self, m: &mut Mut<'_, '_>, mut z: u64) {
        loop {
            let p = Self::get(m, z, F_PARENT);
            if p == self.nil || Self::get(m, p, F_COLOR) == BLACK {
                break;
            }
            let g = Self::get(m, p, F_PARENT);
            // `side` is the side of `g` that `p` hangs on.
            let side = if p == Self::get(m, g, F_LEFT) {
                F_LEFT
            } else {
                F_RIGHT
            };
            let other = opposite(side);
            let u = Self::get(m, g, other);
            if u != self.nil && Self::get(m, u, F_COLOR) == RED {
                Self::set(m, p, F_COLOR, BLACK);
                Self::set(m, u, F_COLOR, BLACK);
                Self::set(m, g, F_COLOR, RED);
                z = g;
            } else {
                if z == Self::get(m, p, other) {
                    z = p;
                    self.rotate(m, z, side);
                }
                let p = Self::get(m, z, F_PARENT);
                let g = Self::get(m, p, F_PARENT);
                Self::set(m, p, F_COLOR, BLACK);
                Self::set(m, g, F_COLOR, RED);
                self.rotate(m, g, other);
            }
        }
        let root = self.root(m);
        if Self::get(m, root, F_COLOR) != BLACK {
            Self::set(m, root, F_COLOR, BLACK);
        }
    }

    fn transplant(&self, m: &mut Mut<'_, '_>, u: u64, v: u64) {
        let up = Self::get(m, u, F_PARENT);
        if up == self.nil {
            self.set_root(m, v);
        } else if u == Self::get(m, up, F_LEFT) {
            Self::set(m, up, F_LEFT, v);
        } else {
            Self::set(m, up, F_RIGHT, v);
        }
        Self::set(m, v, F_PARENT, up);
    }

    fn minimum(&self, m: &mut Mut<'_, '_>, mut x: u64) -> u64 {
        loop {
            let l = Self::get(m, x, F_LEFT);
            if l == self.nil {
                return x;
            }
            x = l;
        }
    }

    fn delete(&mut self, m: &mut Mut<'_, '_>, key: u64) {
        // Find the node.
        let mut z = self.root(m);
        while z != self.nil {
            let k = Self::get(m, z, F_KEY);
            if key == k {
                break;
            }
            z = if key < k {
                Self::get(m, z, F_LEFT)
            } else {
                Self::get(m, z, F_RIGHT)
            };
        }
        if z == self.nil {
            return;
        }
        let mut y = z;
        let mut y_color = Self::get(m, y, F_COLOR);
        let x;
        let zl = Self::get(m, z, F_LEFT);
        let zr = Self::get(m, z, F_RIGHT);
        if zl == self.nil {
            x = zr;
            self.transplant(m, z, zr);
        } else if zr == self.nil {
            x = zl;
            self.transplant(m, z, zl);
        } else {
            y = self.minimum(m, zr);
            y_color = Self::get(m, y, F_COLOR);
            x = Self::get(m, y, F_RIGHT);
            if Self::get(m, y, F_PARENT) == z {
                Self::set(m, x, F_PARENT, y);
            } else {
                let yr = Self::get(m, y, F_RIGHT);
                self.transplant(m, y, yr);
                let zr = Self::get(m, z, F_RIGHT);
                Self::set(m, y, F_RIGHT, zr);
                Self::set(m, zr, F_PARENT, y);
            }
            self.transplant(m, z, y);
            let zl = Self::get(m, z, F_LEFT);
            Self::set(m, y, F_LEFT, zl);
            Self::set(m, zl, F_PARENT, y);
            let zc = Self::get(m, z, F_COLOR);
            Self::set(m, y, F_COLOR, zc);
        }
        if y_color == BLACK {
            self.delete_fixup(m, x);
        }
        if let Some(pos) = self.keys.iter().position(|&k| k == key) {
            self.keys.swap_remove(pos);
        }
    }

    fn delete_fixup(&self, m: &mut Mut<'_, '_>, mut x: u64) {
        while x != self.root(m) && Self::get(m, x, F_COLOR) == BLACK {
            let p = Self::get(m, x, F_PARENT);
            // `side` is the side of `p` that `x` hangs on; its sibling `w`
            // hangs on the other.
            let side = if x == Self::get(m, p, F_LEFT) {
                F_LEFT
            } else {
                F_RIGHT
            };
            let other = opposite(side);
            let mut w = Self::get(m, p, other);
            if Self::get(m, w, F_COLOR) == RED {
                Self::set(m, w, F_COLOR, BLACK);
                Self::set(m, p, F_COLOR, RED);
                self.rotate(m, p, side);
                let p = Self::get(m, x, F_PARENT);
                w = Self::get(m, p, other);
            }
            // Either side loads `w`'s left child first: loads are trace
            // ops, and the figure goldens pin their order.
            let wl = Self::get(m, w, F_LEFT);
            let wr = Self::get(m, w, F_RIGHT);
            let wl_black = wl == self.nil || Self::get(m, wl, F_COLOR) == BLACK;
            let wr_black = wr == self.nil || Self::get(m, wr, F_COLOR) == BLACK;
            if wl_black && wr_black {
                Self::set(m, w, F_COLOR, RED);
                x = Self::get(m, x, F_PARENT);
            } else {
                let (near, far_black) = if side == F_LEFT {
                    (wl, wr_black)
                } else {
                    (wr, wl_black)
                };
                if far_black {
                    if near != self.nil {
                        Self::set(m, near, F_COLOR, BLACK);
                    }
                    Self::set(m, w, F_COLOR, RED);
                    self.rotate(m, w, other);
                    let p = Self::get(m, x, F_PARENT);
                    w = Self::get(m, p, other);
                }
                let p = Self::get(m, x, F_PARENT);
                let pc = Self::get(m, p, F_COLOR);
                Self::set(m, w, F_COLOR, pc);
                Self::set(m, p, F_COLOR, BLACK);
                let far = Self::get(m, w, other);
                if far != self.nil {
                    Self::set(m, far, F_COLOR, BLACK);
                }
                self.rotate(m, p, side);
                x = self.root(m);
            }
        }
        if Self::get(m, x, F_COLOR) != BLACK {
            Self::set(m, x, F_COLOR, BLACK);
        }
    }

    fn validate(
        &self,
        img: &PmImage,
        node: u64,
        min: Option<u64>,
        max: Option<u64>,
        depth: u32,
    ) -> Result<u32, String> {
        if node == self.nil {
            return Ok(1);
        }
        if depth > 128 {
            return Err("tree too deep (cycle?)".into());
        }
        if node < self.pool_start || !node.is_multiple_of(64) {
            return Err(format!("bad node pointer {node:#x}"));
        }
        let key = img.load(Self::field(node, F_KEY));
        let val = img.load(Self::field(node, F_VAL));
        let color = img.load(Self::field(node, F_COLOR));
        let left = img.load(Self::field(node, F_LEFT));
        let right = img.load(Self::field(node, F_RIGHT));
        if val != val_of(key) {
            return Err(format!("node {key}: stale value {val}"));
        }
        if color != RED && color != BLACK {
            return Err(format!("node {key}: bad color {color}"));
        }
        if min.is_some_and(|m| key <= m) || max.is_some_and(|m| key >= m) {
            return Err(format!("node {key}: BST order violated"));
        }
        for child in [left, right] {
            if child != self.nil {
                let cp = img.load(Self::field(child, F_PARENT));
                if cp != node {
                    return Err(format!("node {key}: child parent pointer broken"));
                }
                if color == RED && img.load(Self::field(child, F_COLOR)) == RED {
                    return Err(format!("node {key}: red-red violation"));
                }
            }
        }
        let bl = self.validate(img, left, min, Some(key), depth + 1)?;
        let br = self.validate(img, right, Some(key), max, depth + 1)?;
        if bl != br {
            return Err(format!("node {key}: black height {bl} vs {br}"));
        }
        Ok(bl + u64::from(color == BLACK) as u32)
    }
}

impl Workload for RbTreeWorkload {
    fn name(&self) -> &'static str {
        "rb-tree"
    }

    fn setup(&mut self, ctx: &mut FuncCtx) {
        let pool = {
            let mut heap = ctx.heap();
            self.root_ptr = heap.alloc_lines(1);
            let nil = heap.alloc_lines(1);
            self.nil = nil.raw();
            self.pool_start = self.nil;
            heap.alloc_arena(ARENA_LINES)
        };
        let nil = Addr(self.nil);
        // The sentinel is black; its other fields are scratch.
        ctx.store(0, nil.offset_words(F_COLOR), BLACK);
        ctx.store(0, self.root_ptr, self.nil);
        // Pre-touch the node pool so steady-state inserts hit warm lines.
        for i in 0..POOL_LINES {
            ctx.store(0, Addr(self.nil + 64 + i * 64), 0);
        }
        self.pool = Some(pool);
    }

    fn run_region(
        &mut self,
        ctx: &mut FuncCtx,
        rt: &mut ThreadRuntime,
        rng: &mut SmallRng,
        ops: usize,
    ) {
        let tid = rt.tid();
        rt.region_begin(ctx, &[TREE_LOCK]);
        for _ in 0..ops {
            let insert = self.keys.is_empty() || rng.gen_bool(0.6);
            if insert {
                let key = rng.gen_range(1..=KEY_SPACE);
                let mut m = Mut { ctx, rt, tid };
                self.insert(&mut m, key);
            } else {
                let key = self.keys[rng.gen_range(0..self.keys.len())];
                let mut m = Mut { ctx, rt, tid };
                self.delete(&mut m, key);
            }
            ctx.compute(tid, OP_COMPUTE);
        }
        rt.region_end(ctx);
    }

    fn check(&self, img: &PmImage) -> Result<(), String> {
        let root = img.load(self.root_ptr);
        if root == 0 {
            return Err("root pointer lost".into());
        }
        if root != self.nil && img.load(Self::field(root, F_COLOR)) != BLACK {
            return Err("root is not black".into());
        }
        self.validate(img, root, None, None, 0).map(|_| ())
    }
}

impl std::fmt::Debug for Mut<'_, '_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Mut").field("tid", &self.tid).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::{drive, DriverParams};
    use sw_lang::{HwDesign, LangModel};

    fn run(regions: usize, ops: usize, seed: u64) -> (RbTreeWorkload, PmImage) {
        let mut w = RbTreeWorkload::new();
        let p = DriverParams::new(HwDesign::StrandWeaver, LangModel::Txn)
            .threads(2)
            .total_regions(regions)
            .ops_per_region(ops)
            .seed(seed)
            .clean_shutdown();
        let out = drive(&mut w, &p);
        let mut snap = out.ctx.mem().clone();
        snap.persist_all();
        (w, snap.persisted_image().clone())
    }

    #[test]
    fn inserts_produce_a_valid_tree() {
        let (w, img) = run(40, 2, 1);
        w.check(&img).unwrap();
        assert!(!w.keys.is_empty());
    }

    #[test]
    fn mixed_inserts_and_deletes_stay_valid() {
        for seed in 0..5 {
            let (w, img) = run(80, 3, seed);
            w.check(&img).unwrap();
        }
    }

    #[test]
    fn checker_rejects_red_root() {
        let (w, mut img) = run(40, 2, 1);
        let root = img.load(w.root_ptr);
        assert_ne!(root, w.nil, "tree must be non-empty for this test");
        img.store(RbTreeWorkload::field(root, F_COLOR), RED);
        assert!(w.check(&img).is_err());
    }

    #[test]
    fn checker_rejects_bst_violation() {
        let (w, mut img) = run(30, 2, 4);
        let root = img.load(w.root_ptr);
        let left = img.load(RbTreeWorkload::field(root, F_LEFT));
        if left != w.nil {
            img.store(RbTreeWorkload::field(left, F_KEY), u64::MAX / 2);
            assert!(w.check(&img).is_err());
        }
    }

    #[test]
    fn delete_of_absent_key_is_noop() {
        let mut w = RbTreeWorkload::new();
        let p = DriverParams::new(HwDesign::StrandWeaver, LangModel::Txn)
            .threads(1)
            .total_regions(1)
            .clean_shutdown();
        // A single region; the workload only deletes keys it inserted, so
        // drive normally and then check.
        let out = drive(&mut w, &p);
        let mut snap = out.ctx.mem().clone();
        snap.persist_all();
        w.check(snap.persisted_image()).unwrap();
    }
}
