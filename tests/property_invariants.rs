//! Property-based tests (proptest) on the core invariants the paper's guarantees
//! rest on: the gradient sensitivity bound behind Theorem 1, the projection of
//! Eq. 3, the wire-codec round trip, partition coverage, and the counter
//! mechanisms of Theorem 2.

use crowd_ml::core::config::PrivacyConfig;
use crowd_ml::core::privacy::Sanitizer;
use crowd_ml::data::partition::{partition, PartitionStrategy};
use crowd_ml::data::{Dataset, Sample};
use crowd_ml::dp::{DiscreteLaplaceMechanism, Epsilon};
use crowd_ml::learning::model::{minibatch_statistics, Model};
use crowd_ml::learning::MulticlassLogistic;
use crowd_ml::linalg::ops::{normalize_l1, project_l2_ball};
use crowd_ml::linalg::Vector;
use crowd_ml::proto::auth::AuthToken;
use crowd_ml::proto::codec::{decode, encode};
use crowd_ml::proto::message::{
    BusyReply, CheckinAck, CheckinRequest, CheckoutResponse, ErrorCode, ErrorReply,
    GradientPayload, Message, RoundParams,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Appendix A / Theorem 1: for L1-normalized features, two minibatches of size
    /// b differing in one sample have averaged gradients at most 4/b apart in L1.
    #[test]
    fn averaged_gradient_sensitivity_bound(
        seed in 0u64..1000,
        b in 1usize..12,
        labels in prop::collection::vec(0usize..5, 12),
        swap_label in 0usize..5,
    ) {
        let dim = 6;
        let classes = 5;
        let model = MulticlassLogistic::new(dim, classes).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let params = crowd_ml::linalg::random::normal_vector(&mut rng, model.param_dim());

        let make_sample = |rng: &mut StdRng, label: usize| {
            let mut x = crowd_ml::linalg::random::normal_vector(rng, dim);
            normalize_l1(&mut x);
            Sample::new(x, label)
        };
        let batch: Vec<Sample> = labels.iter().take(b).map(|&l| make_sample(&mut rng, l)).collect();
        prop_assume!(!batch.is_empty());
        let mut neighbour = batch.clone();
        neighbour[0] = make_sample(&mut rng, swap_label);

        let g1 = minibatch_statistics(&model, &params, &batch, 0.0, &[]).unwrap().gradient;
        let g2 = minibatch_statistics(&model, &params, &neighbour, 0.0, &[]).unwrap().gradient;
        let sensitivity = (&g1 - &g2).norm_l1();
        prop_assert!(sensitivity <= 4.0 / batch.len() as f64 + 1e-9,
            "sensitivity {} exceeds 4/b = {}", sensitivity, 4.0 / batch.len() as f64);
    }

    /// The projection of Eq. 3 never increases the norm, is idempotent, and leaves
    /// in-ball vectors untouched.
    #[test]
    fn projection_properties(values in prop::collection::vec(-1e3f64..1e3, 1..40), radius in 0.1f64..50.0) {
        let original = Vector::from_vec(values);
        let mut projected = original.clone();
        project_l2_ball(&mut projected, radius);
        prop_assert!(projected.norm_l2() <= radius + 1e-9);
        let mut twice = projected.clone();
        project_l2_ball(&mut twice, radius);
        prop_assert!(twice.distance(&projected).unwrap() < 1e-9);
        if original.norm_l2() <= radius {
            prop_assert_eq!(projected, original);
        }
    }

    /// Codec round trip: every well-formed checkin/checkout message survives
    /// encode → decode unchanged.
    #[test]
    fn codec_round_trip(
        device_id in any::<u64>(),
        iteration in any::<u64>(),
        gradient in prop::collection::vec(-1e6f64..1e6, 0..128),
        counts in prop::collection::vec(-1000i64..1000, 0..16),
        num_samples in 0u32..10_000,
        error_count in -1000i64..1000,
        stopped in any::<bool>(),
        round_id in any::<u64>(),
        select_fraction in 0.01f64..=1.0,
    ) {
        let checkin = Message::CheckinRequest(CheckinRequest {
            device_id,
            token: AuthToken::derive(device_id, 99),
            checkout_iteration: iteration,
            nonce: 0,
            round_id,
            gradient: GradientPayload::from_dense_auto(gradient.clone()),
            num_samples,
            error_count,
            label_counts: counts,
        });
        prop_assert_eq!(decode(&encode(&checkin)).unwrap(), checkin);

        // Alternate between free-running (no round) and round-annotated
        // checkouts so both wire shapes survive the trip.
        let round = round_id.is_multiple_of(2).then(|| RoundParams {
            round_id,
            seed: device_id,
            select_fraction,
            deadline_epochs: (iteration % 64) as u32 + 1,
            population: device_id % 100_000,
        });
        let checkout = Message::CheckoutResponse(CheckoutResponse {
            iteration,
            params: gradient,
            stopped,
            round,
        });
        prop_assert_eq!(decode(&encode(&checkout)).unwrap(), checkout);
    }

    /// Sparse ↔ dense payload equivalence: a gradient auto-encoded for the
    /// wire (sparse whenever its zeros make that smaller), shipped through
    /// encode → decode, and applied to a server produces parameters bitwise
    /// identical to the same gradient applied densely — the sparse transport
    /// is lossless to the last bit.
    #[test]
    fn sparse_roundtrip_applies_bitwise_identically_to_dense(
        seed in 0u64..1000,
        input_dim in 1usize..24,
        density_pct in 0u32..=100,
    ) {
        use crowd_ml::core::config::ServerConfig;
        use crowd_ml::core::device::CheckinPayload;
        use crowd_ml::core::server::Server;
        use crowd_ml::linalg::{GradientUpdate, SparseVector};
        use rand::Rng;

        let classes = 2;
        let dim = input_dim * classes;
        let mut rng = StdRng::seed_from_u64(seed);
        let dense: Vec<f64> = (0..dim)
            .map(|_| {
                if rng.gen_range(0u32..100) < density_pct {
                    rng.gen_range(-1.0..1.0)
                } else {
                    0.0
                }
            })
            .collect();

        // Ship the auto-selected encoding through the real codec.
        let request = CheckinRequest {
            device_id: 3,
            token: AuthToken::derive(3, 9),
            checkout_iteration: 0,
            nonce: 0,
            round_id: 0,
            gradient: GradientPayload::from_dense_auto(dense.clone()),
            num_samples: 2,
            error_count: 1,
            label_counts: vec![1, 1],
        };
        let went_sparse = matches!(request.gradient, GradientPayload::Sparse { .. });
        let decoded = match decode(&encode(&Message::CheckinRequest(request))).unwrap() {
            Message::CheckinRequest(r) => r,
            other => panic!("unexpected message {}", other.name()),
        };
        let received = match decoded.gradient {
            GradientPayload::Dense(values) => GradientUpdate::Dense(Vector::from_vec(values)),
            GradientPayload::Sparse { dim, indices, values } => GradientUpdate::Sparse(
                SparseVector::new(dim as usize, indices, values).unwrap(),
            ),
            // from_dense_auto never picks the lossy or round-only encodings.
            GradientPayload::Quantized { .. } => panic!("auto-selection produced Quantized"),
            GradientPayload::Masked { .. } => panic!("auto-selection produced Masked"),
        };
        prop_assert_eq!(received.to_dense().as_slice(), &dense[..]);

        // Apply the wire-decoded gradient and the dense original to twin
        // servers: the parameter trajectories must match bit for bit.
        let payload_with = |gradient: GradientUpdate| CheckinPayload {
            device_id: 3,
            checkout_iteration: 0,
            nonce: 0,
            gradient,
            num_samples: 2,
            error_count: 1,
            label_counts: vec![1, 1],
        };
        let model = MulticlassLogistic::new(input_dim, classes).unwrap();
        let mut via_wire = Server::new(model, ServerConfig::new()).unwrap();
        let model = MulticlassLogistic::new(input_dim, classes).unwrap();
        let mut via_dense = Server::new(model, ServerConfig::new()).unwrap();
        via_wire.checkin(&payload_with(received)).unwrap();
        via_dense
            .checkin(&payload_with(GradientUpdate::Dense(Vector::from_vec(dense))))
            .unwrap();
        let wire_bits: Vec<u64> = via_wire.params().iter().map(|v| v.to_bits()).collect();
        let dense_bits: Vec<u64> = via_dense.params().iter().map(|v| v.to_bits()).collect();
        prop_assert_eq!(wire_bits, dense_bits,
            "sparse={} diverged from the dense path", went_sparse);
    }

    /// Checkin acks, error replies and retry-after messages survive encode →
    /// decode unchanged for every flag combination and every error code.
    #[test]
    fn ack_error_and_busy_round_trip(
        iteration in any::<u64>(),
        // Every error code (1..=7 on the wire).
        code_selector in 1u8..8,
        round_id in any::<u64>(),
        accepted in any::<bool>(),
        stopped in any::<bool>(),
        retry_after_ms in any::<u32>(),
    ) {
        let ack = Message::CheckinAck(CheckinAck {
            accepted,
            iteration,
            stopped,
            deduped: accepted ^ stopped,
        });
        prop_assert_eq!(decode(&encode(&ack)).unwrap(), ack);

        let code = ErrorCode::from_u8(code_selector).unwrap();
        let detail = format!("code {code_selector} at iteration {iteration}");
        let error = Message::Error(ErrorReply { code, detail, round_id });
        prop_assert_eq!(decode(&encode(&error)).unwrap(), error);

        let busy = Message::Busy(BusyReply { retry_after_ms });
        prop_assert_eq!(decode(&encode(&busy)).unwrap(), busy);
    }

    /// Partitioning never loses or duplicates samples and preserves class counts,
    /// for every strategy.
    #[test]
    fn partition_preserves_samples(
        seed in 0u64..500,
        n in 20usize..150,
        devices in 1usize..12,
        strategy_idx in 0usize..3,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut samples = Vec::with_capacity(n);
        for i in 0..n {
            samples.push(Sample::new(Vector::from_vec(vec![i as f64, (i % 7) as f64]), i % 4));
        }
        let data = Dataset::new(samples, 4).unwrap();
        let strategy = match strategy_idx {
            0 => PartitionStrategy::Iid,
            1 => PartitionStrategy::LabelShards { shards_per_device: 2 },
            _ => PartitionStrategy::Dirichlet { alpha: 0.5 },
        };
        let parts = partition(&data, devices, strategy, &mut rng).unwrap();
        prop_assert_eq!(parts.len(), devices);
        let total: usize = parts.iter().map(|p| p.len()).sum();
        prop_assert_eq!(total, data.len());
        let mut combined = vec![0usize; 4];
        for p in &parts {
            for (acc, c) in combined.iter_mut().zip(p.class_counts()) {
                *acc += c;
            }
        }
        prop_assert_eq!(combined, data.class_counts());
    }

    /// Theorem 2 machinery: discrete Laplace noise is integer-valued and the
    /// non-private sanitizer is exactly the identity.
    #[test]
    fn sanitizer_and_counter_properties(
        count in 0i64..10_000,
        eps in 0.01f64..20.0,
        gradient in prop::collection::vec(-5.0f64..5.0, 1..32),
        errors in 0usize..50,
    ) {
        let mechanism = DiscreteLaplaceMechanism::new(Epsilon::finite(eps).unwrap());
        let mut rng = StdRng::seed_from_u64(count as u64);
        let perturbed = mechanism.perturb_count(&mut rng, count);
        // Integer output by construction; difference is finite and symmetric noise
        // can take either sign, so only sanity-check the magnitude is bounded by
        // something enormous (no overflow).
        prop_assert!((perturbed - count).abs() < 1_000_000);

        let g = Vector::from_vec(gradient);
        let sanitizer = Sanitizer::new(&PrivacyConfig::non_private(), 5).unwrap();
        let out = sanitizer.sanitize(&mut rng, &g, errors, &[errors as u64, 3]);
        prop_assert_eq!(out.gradient, g);
        prop_assert_eq!(out.error_count, errors as i64);
        prop_assert_eq!(out.label_counts, vec![errors as i64, 3]);
    }
}

proptest! {
    // Each case spins up two full aggregation runtimes, so this sweep runs
    // fewer cases than the pure-math properties.
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Masked round finalization is submission-order independent: the same
    /// cohort submissions with the same dropout subset land on
    /// bitwise-identical parameters whether the survivors submit in
    /// ascending device order or in a seed-shuffled one, because the pending
    /// round buffer is folded in ascending device order at finalization.
    /// Together with `crates/rounds/tests/mask_cancellation.rs` (masked sum
    /// == unmasked sum) this closes the loop over cohorts, dropouts, and
    /// arrival orders.
    #[test]
    fn masked_round_finalization_is_submission_order_independent(
        seed in 0u64..10_000,
        population in 2u64..10,
        drop_bits in any::<u32>(),
    ) {
        use crowd_ml::agg::AggRuntime;
        use crowd_ml::core::config::{AggSettings, RoundSettings, ServerConfig};
        use crowd_ml::core::server::{PendingSubmission, Server};
        use rand::seq::SliceRandom;

        let dim = 4usize;
        let classes = 3usize;
        let param_dim = dim * classes;
        let gradient = |device: u64| -> Vec<f64> {
            let mut rng = StdRng::seed_from_u64(seed ^ device.wrapping_mul(0x9E37_79B9));
            crowd_ml::linalg::random::normal_vector(&mut rng, param_dim).as_slice().to_vec()
        };

        let run = |shuffled: bool| {
            let config = ServerConfig::new()
                .with_agg(AggSettings {
                    queue_bound: 64,
                    epoch_size: 1,
                    retry_after_ms: 1,
                    flush_idle_ms: 1,
                })
                .with_rounds(
                    RoundSettings::new(population)
                        .with_select_fraction(1.0)
                        .with_deadline_epochs(1_000_000)
                        .with_seed(seed),
                );
            let model = MulticlassLogistic::new(dim, classes).unwrap();
            let runtime = AggRuntime::new(Server::new(model, config).unwrap()).unwrap();
            let info = runtime.round_info().expect("rounds are enabled");
            let members =
                crowd_ml::rounds::cohort(info.seed, info.population, info.select_fraction);
            // At least one survivor so the round finalizes with an epoch.
            let mut survivors: Vec<u64> = members
                .iter()
                .copied()
                .enumerate()
                .filter(|&(i, _)| i == 0 || drop_bits & (1 << (i % 32)) != 0)
                .map(|(_, d)| d)
                .collect();
            survivors.sort_unstable();
            if shuffled {
                survivors.shuffle(&mut StdRng::seed_from_u64(seed));
            }
            for &d in &survivors {
                let mask_words =
                    crowd_ml::rounds::net_mask(info.seed, d, &members, param_dim);
                let words = crowd_ml::rounds::mask(&gradient(d), &mask_words);
                runtime
                    .submit_round(info.round_id, PendingSubmission {
                        device_id: d,
                        nonce: info.round_id + 1,
                        checkout_iteration: 0,
                        words,
                        num_samples: 2 * classes as u32,
                        error_count: 1,
                        label_counts: vec![2; classes],
                    })
                    .unwrap();
            }
            // Dropped members never submit; settle finalizes the partial
            // cohort with mask compensation (a full cohort finalized inline).
            runtime.settle_rounds();
            let bits: Vec<u64> = runtime.params().iter().map(|v| v.to_bits()).collect();
            let iteration = runtime.iteration();
            runtime.shutdown();
            (bits, iteration)
        };

        let (bits_a, iter_a) = run(false);
        let (bits_b, iter_b) = run(true);
        prop_assert_eq!(iter_a, 1, "the finalized round applies exactly one epoch");
        prop_assert_eq!(iter_a, iter_b);
        prop_assert_eq!(bits_a, bits_b);
    }
}
