//! Property-based tests for the math primitives, driven by the crate's own
//! deterministic generator (`DetRng`) instead of an external fuzzing crate:
//! each test sweeps a fixed-seed randomized sample of the input space, so
//! failures are reproducible bit-for-bit from the test name alone.

use patu_gmath::{barycentric, Aabb2, DetRng, EdgeEval, Frustum, Mat4, Vec2, Vec3, Vec4};

const CASES: usize = 512;

fn f32_in(rng: &mut DetRng, lo: f32, hi: f32) -> f32 {
    lo + rng.next_f32() * (hi - lo)
}

fn vec2(rng: &mut DetRng) -> Vec2 {
    Vec2::new(f32_in(rng, -100.0, 100.0), f32_in(rng, -100.0, 100.0))
}

fn vec3(rng: &mut DetRng) -> Vec3 {
    Vec3::new(
        f32_in(rng, -100.0, 100.0),
        f32_in(rng, -100.0, 100.0),
        f32_in(rng, -100.0, 100.0),
    )
}

#[test]
fn vec2_add_commutes() {
    let mut rng = DetRng::new(0x67_01);
    for _ in 0..CASES {
        let (a, b) = (vec2(&mut rng), vec2(&mut rng));
        assert_eq!(a + b, b + a);
    }
}

#[test]
fn vec3_dot_symmetric() {
    let mut rng = DetRng::new(0x67_02);
    for _ in 0..CASES {
        let (a, b) = (vec3(&mut rng), vec3(&mut rng));
        assert_eq!(a.dot(b), b.dot(a));
    }
}

#[test]
fn vec3_cross_orthogonal() {
    let mut rng = DetRng::new(0x67_03);
    for _ in 0..CASES {
        let (a, b) = (vec3(&mut rng), vec3(&mut rng));
        let c = a.cross(b);
        // Orthogonality up to floating-point error, scaled by magnitudes.
        let scale = (a.length() * b.length()).max(1.0);
        assert!((c.dot(a) / (scale * scale)).abs() < 1e-4);
        assert!((c.dot(b) / (scale * scale)).abs() < 1e-4);
    }
}

#[test]
fn normalized_has_unit_length_or_zero() {
    let mut rng = DetRng::new(0x67_04);
    for _ in 0..CASES {
        let v = vec3(&mut rng);
        let n = v.normalized();
        if v.length() > 1e-3 {
            assert!((n.length() - 1.0).abs() < 1e-3);
        }
    }
}

#[test]
fn barycentric_weights_sum_to_one() {
    let mut rng = DetRng::new(0x67_05);
    for _ in 0..CASES {
        let (a, b, c, p) = (
            vec2(&mut rng),
            vec2(&mut rng),
            vec2(&mut rng),
            vec2(&mut rng),
        );
        if let Some((w0, w1, w2)) = barycentric(a, b, c, p) {
            let area = (b - a).cross(c - a).abs();
            // Skip nearly-degenerate triangles where cancellation dominates.
            if area <= 1e-2 {
                continue;
            }
            assert!((w0 + w1 + w2 - 1.0).abs() < 1e-2);
        }
    }
}

#[test]
fn barycentric_reconstructs_point() {
    let mut rng = DetRng::new(0x67_06);
    for _ in 0..CASES {
        let (a, b, c, p) = (
            vec2(&mut rng),
            vec2(&mut rng),
            vec2(&mut rng),
            vec2(&mut rng),
        );
        if let Some((w0, w1, w2)) = barycentric(a, b, c, p) {
            let area = (b - a).cross(c - a).abs();
            // Cancellation error grows with the triangle's conditioning
            // (perimeter^2 / area); skip needle triangles.
            let perimeter = (b - a).length() + (c - b).length() + (a - c).length();
            if !(area > 1.0 && perimeter * perimeter / area < 100.0) {
                continue;
            }
            let q = a * w0 + b * w1 + c * w2;
            assert!((q - p).length() < 1e-1, "reconstructed {q} vs {p}");
        }
    }
}

#[test]
fn edge_eval_agrees_with_barycentric() {
    let mut rng = DetRng::new(0x67_07);
    for _ in 0..CASES {
        let (a, b, c, p) = (
            vec2(&mut rng),
            vec2(&mut rng),
            vec2(&mut rng),
            vec2(&mut rng),
        );
        if let (Some(tri), Some((w0, w1, w2))) = (EdgeEval::new(a, b, c), barycentric(a, b, c, p)) {
            let area = (b - a).cross(c - a).abs();
            let perimeter = (b - a).length() + (c - b).length() + (a - c).length();
            if !(area > 1e-2 && perimeter * perimeter / area < 1e4) {
                continue;
            }
            let (e0, e1, e2) = tri.weights(p);
            assert!((e0 - w0).abs() < 1e-3);
            assert!((e1 - w1).abs() < 1e-3);
            assert!((e2 - w2).abs() < 1e-3);
        }
    }
}

#[test]
fn aabb_union_contains_inputs() {
    let mut rng = DetRng::new(0x67_08);
    for _ in 0..CASES {
        let (a, b, c, d) = (
            vec2(&mut rng),
            vec2(&mut rng),
            vec2(&mut rng),
            vec2(&mut rng),
        );
        let x = Aabb2::new(a, b);
        let y = Aabb2::new(c, d);
        let u = x.union(&y);
        assert!(u.contains(a) && u.contains(b) && u.contains(c) && u.contains(d));
    }
}

#[test]
fn aabb_intersection_subset_of_both() {
    let mut rng = DetRng::new(0x67_09);
    for _ in 0..CASES {
        let (a, b, c, d) = (
            vec2(&mut rng),
            vec2(&mut rng),
            vec2(&mut rng),
            vec2(&mut rng),
        );
        let x = Aabb2::new(a, b);
        let y = Aabb2::new(c, d);
        if let Some(i) = x.intersection(&y) {
            assert!(x.contains(i.min) && x.contains(i.max));
            assert!(y.contains(i.min) && y.contains(i.max));
        }
    }
}

#[test]
fn mat4_identity_is_neutral() {
    let mut rng = DetRng::new(0x67_0A);
    for _ in 0..CASES {
        let v = vec3(&mut rng);
        let p = Mat4::IDENTITY.transform_point(v);
        assert_eq!(p, v);
    }
}

#[test]
fn mat4_translate_then_inverse_translate() {
    let mut rng = DetRng::new(0x67_0B);
    for _ in 0..CASES {
        let (v, t) = (vec3(&mut rng), vec3(&mut rng));
        let m = Mat4::translation(t) * Mat4::translation(-t);
        let p = m.transform_point(v);
        assert!((p - v).length() < 1e-3);
    }
}

#[test]
fn mat4_product_associative_on_vectors() {
    let mut rng = DetRng::new(0x67_0C);
    for _ in 0..CASES {
        let (t, v) = (vec3(&mut rng), vec3(&mut rng));
        let a = Mat4::translation(t);
        let b = Mat4::look_at(Vec3::new(1.0, 2.0, 3.0), Vec3::ZERO, Vec3::UP);
        let c = Mat4::perspective(1.0, 1.5, 0.1, 100.0);
        let lhs = ((a * b) * c) * v.extend(1.0);
        let rhs = (a * (b * c)) * v.extend(1.0);
        assert!((lhs - rhs).truncate().length() < 1e-2);
    }
}

#[test]
fn frustum_outcode_consistent_with_contains() {
    let mut rng = DetRng::new(0x67_0D);
    for _ in 0..CASES {
        let p = Vec4::new(
            f32_in(&mut rng, -3.0, 3.0),
            f32_in(&mut rng, -3.0, 3.0),
            f32_in(&mut rng, -3.0, 3.0),
            f32_in(&mut rng, 0.1, 3.0),
        );
        assert_eq!(Frustum::outcode(p) == 0, Frustum::contains(p));
    }
}
