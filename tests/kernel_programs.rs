//! Kernel program pins: every public kernel builder's output, fixed.
//!
//! For each builder over a small grid of shapes and configurations this
//! records the kernel's `StableHasher` digest (metadata, every warp's
//! placement and every program's contents) and the number of distinct
//! `Arc<Program>`s among its warps. The digest catches any change to a
//! generated program; the sharing count catches a refactor that keeps the
//! programs but clones what used to be shared (build time and memory of
//! every cold sweep query). A change that means to alter a program updates
//! its row here and says why.

use std::collections::HashSet;
use std::sync::Arc;

use virgo::{DesignKind, GpuConfig};
use virgo_isa::{Kernel, PartitionStrategy, Program};
use virgo_kernels::{
    build_flash_attention, build_flash_attention_broadcast, build_flash_attention_interleaved,
    build_gemm, build_heterogeneous_parallel, build_heterogeneous_serial, build_split_k_gemm,
    build_split_k_gemm_with_strategy, AttentionShape, GemmShape,
};
use virgo_sim::{StableHash, StableHasher};

/// `"label: kernel digest, distinct programs"`, one row per kernel.
const PINS: &[&str] = &[
    "gemm Volta-style 256x256x256 c1: 5e13c6a996ba90d16ed3a66982ac566a 64",
    "gemm Volta-style 256x256x256 c2: 851b1722dab8c4b204836c9cbfc9d1c7 128",
    "gemm Volta-style 256x256x256 c4: 3caf844f539dcffd43927a6b4c8972e3 256",
    "gemm Volta-style 256x256x512 c1: f5cf3c38fd02f0e2b5eefe059ac30891 64",
    "gemm Volta-style 256x256x512 c2: ae9441df2fd98ed8d85637140e51ebe4 128",
    "gemm Volta-style 256x256x512 c4: 0ea819057fab0fb518ad25b28bd858d6 256",
    "gemm Volta-style 256x512x256 c1: 111430c952e47723de657f493b30d611 64",
    "gemm Volta-style 256x512x256 c2: c38561ac1dd77c05015c14b128377a35 128",
    "gemm Volta-style 256x512x256 c4: 10b66a4696b3e344ebebdc5f97cc438b 256",
    "gemm Volta-style 256x512x512 c1: 114b989ec342d3161c9b329a4d1902c8 64",
    "gemm Volta-style 256x512x512 c2: f199afa237cf4a78edb84fd7527f1ac4 128",
    "gemm Volta-style 256x512x512 c4: 9f2b6c7b59dbb7d00af835828bdd576a 256",
    "gemm Volta-style 512x256x256 c1: 9cdb4c962402f1a52e63a8398f68237e 64",
    "gemm Volta-style 512x256x256 c2: 597e28ce34b8eeba4e8cb5688596d103 128",
    "gemm Volta-style 512x256x256 c4: f8e7a8391e6f9f4360a12a3cfbbef8dc 256",
    "gemm Volta-style 512x256x512 c1: 706f989bdea4e6ea01a003e344b7a260 64",
    "gemm Volta-style 512x256x512 c2: 7f02538eb5e6868d0ecccab1d77bf991 128",
    "gemm Volta-style 512x256x512 c4: be848cfffd8148e419ddf8f5a5ee80bc 256",
    "gemm Volta-style 512x512x256 c1: f8be533e8330873b6cc261e9e0637c9f 64",
    "gemm Volta-style 512x512x256 c2: ea6a13c828c188821efdfa22ed6a0e68 128",
    "gemm Volta-style 512x512x256 c4: 1db50738e201098b083d50368f747f4b 256",
    "gemm Volta-style 512x512x512 c1: 94017926b9aedf3124441019439aa2bd 64",
    "gemm Volta-style 512x512x512 c2: b3548c87a4e490c05f9624ee6b2df29b 128",
    "gemm Volta-style 512x512x512 c4: 5d983764a88d05959fa666db7d60f073 256",
    "gemm Ampere-style 256x256x256 c1: ac927e396ba596026c83eb39996a76b5 64",
    "gemm Ampere-style 256x256x256 c2: 4034c79806143ed09db1964af3cf717d 128",
    "gemm Ampere-style 256x256x256 c4: 877e212fd7b67d1042149f37fe9a8219 256",
    "gemm Ampere-style 256x256x512 c1: 84c75fa8be8cda8999c467c92971f85b 64",
    "gemm Ampere-style 256x256x512 c2: af2b94021600fdaa53744ab0187a7ae2 128",
    "gemm Ampere-style 256x256x512 c4: 4cd8b7409866ed9a148d243e171d01e3 256",
    "gemm Ampere-style 256x512x256 c1: f3aa352d6bc05e8f3f9387d69f82e3a9 64",
    "gemm Ampere-style 256x512x256 c2: 0b48aea044fcf25c4cc87198345936b0 128",
    "gemm Ampere-style 256x512x256 c4: 3fac16c161b212f194a06fec83c96699 256",
    "gemm Ampere-style 256x512x512 c1: 0f3be886040ad76d117ae451597dd56b 64",
    "gemm Ampere-style 256x512x512 c2: 8571276f08bc6802a8e37daa53d56bbe 128",
    "gemm Ampere-style 256x512x512 c4: 407a269e6b1fd059370ee90c9ca40572 256",
    "gemm Ampere-style 512x256x256 c1: d9b4735c914c7b6f8db2d518f02e898e 64",
    "gemm Ampere-style 512x256x256 c2: 3314eddf11ef9cc75ae2e03961e12054 128",
    "gemm Ampere-style 512x256x256 c4: a8263e52c04aec738e1b00ccf3f4978f 256",
    "gemm Ampere-style 512x256x512 c1: 7cc636f48c8f8962b834055a1391f50f 64",
    "gemm Ampere-style 512x256x512 c2: db6ab82dd52cec4202d797d235bcef9e 128",
    "gemm Ampere-style 512x256x512 c4: d3412c2b0c4932be141c0c1414930ae2 256",
    "gemm Ampere-style 512x512x256 c1: 3ad14795402fd76e373c7b3c75e41349 64",
    "gemm Ampere-style 512x512x256 c2: e7b99f704ffd246b58c1295654bec259 128",
    "gemm Ampere-style 512x512x256 c4: e456d7fa6dc97ed7cddd673ee2d9bf86 256",
    "gemm Ampere-style 512x512x512 c1: e678d2d60e0eb1363d8629771d1badb3 64",
    "gemm Ampere-style 512x512x512 c2: e1f20de2068fe21772b89f48c499c785 128",
    "gemm Ampere-style 512x512x512 c4: 530f5540f277323c155a3f329f3d3eaf 256",
    "gemm Hopper-style 256x256x256 c1: 6ad75f62a7c542c01809bb5efd37a007 32",
    "gemm Hopper-style 256x256x256 c2: 6d4e2e59e5e71f047d4f24cbaf873638 64",
    "gemm Hopper-style 256x256x256 c4: 3cf6e30e7d72f412c65249bb80932ea0 128",
    "gemm Hopper-style 256x256x512 c1: ac3a8ca1f30c3226c754b6d1aa4e44da 32",
    "gemm Hopper-style 256x256x512 c2: 8f7e55670817309e2f028d286b57c7c1 64",
    "gemm Hopper-style 256x256x512 c4: 8af02a31dfce63c19092891557b685e8 128",
    "gemm Hopper-style 256x512x256 c1: 9f4c24e0d50bf6114856aa8eda45b83f 32",
    "gemm Hopper-style 256x512x256 c2: 987ea50a8c503b3bdfd3ec80c3598caf 64",
    "gemm Hopper-style 256x512x256 c4: 8dec015eadc289461337017d07c63c05 128",
    "gemm Hopper-style 256x512x512 c1: 7cbbfd90628dd941118f42b1406d2634 32",
    "gemm Hopper-style 256x512x512 c2: b54afcf0cf6b04a3731ea3db582a2b2a 64",
    "gemm Hopper-style 256x512x512 c4: 01f60ed3d83ef6c1608df1b82531ff4b 128",
    "gemm Hopper-style 512x256x256 c1: 1aaeeccbbc577303f9ba0e08344c7150 32",
    "gemm Hopper-style 512x256x256 c2: 44ff71c52ba6a2e7996455b9e05bb45f 64",
    "gemm Hopper-style 512x256x256 c4: 24a92b2def543f456d0c738b79cfc314 128",
    "gemm Hopper-style 512x256x512 c1: be03a30019f4fe513f1caa80e6cca733 32",
    "gemm Hopper-style 512x256x512 c2: ef0d7bdebb6ca5efde17e25e707dd07c 64",
    "gemm Hopper-style 512x256x512 c4: b3e3355dffa48870fb266585c279a432 128",
    "gemm Hopper-style 512x512x256 c1: 9d7a098016bd1c715924358a57304324 32",
    "gemm Hopper-style 512x512x256 c2: 5aadc796cce069c4212c4dae15063d97 64",
    "gemm Hopper-style 512x512x256 c4: a6d96c439ec2983f09dc73f7dfe699b1 128",
    "gemm Hopper-style 512x512x512 c1: 49dcb4632aae6df14a4ed0ca3a83f6c2 32",
    "gemm Hopper-style 512x512x512 c2: 3c6d1638dbfc104abe865d144a9357c2 64",
    "gemm Hopper-style 512x512x512 c4: a063c04c919d21c6227a4aa31b677d3b 128",
    "gemm Virgo 256x256x256 c1: c1d9c39a64c928039b2790d3f008a459 2",
    "gemm Virgo 256x256x256 c2: 42633a11983ccbca448090804412e1d8 4",
    "gemm Virgo 256x256x256 c4: e7b62afae9a45694881fcef15454df72 8",
    "gemm Virgo 256x256x512 c1: 8a1e67522fe145c842ad81e519f1533a 2",
    "gemm Virgo 256x256x512 c2: 93f51a7cdac44495a83c16a575ba7515 4",
    "gemm Virgo 256x256x512 c4: 119363855f8399f925ede7f4247a49cf 8",
    "gemm Virgo 256x512x256 c1: 2268be34167bacd0052fd45162a47f46 2",
    "gemm Virgo 256x512x256 c2: 33e49aa3910558e636036e33decc2140 4",
    "gemm Virgo 256x512x256 c4: 1208c3af4c56e4b7de28bdabb326dcde 8",
    "gemm Virgo 256x512x512 c1: 62df8ca8018b4259f49cb1dd58467fbf 2",
    "gemm Virgo 256x512x512 c2: 687edc2cf24c7c1ed159a7f728a1dd44 4",
    "gemm Virgo 256x512x512 c4: a9b0903f1ff35818863830c4c536e28e 8",
    "gemm Virgo 512x256x256 c1: c076c961d146b858467e8c906366afec 2",
    "gemm Virgo 512x256x256 c2: 0469fd08411c426e208ed569a84ff2b1 4",
    "gemm Virgo 512x256x256 c4: 5693629202d31b1d94f8405c254fc594 8",
    "gemm Virgo 512x256x512 c1: c7a2e1d8386fa91677dd8e00122da904 2",
    "gemm Virgo 512x256x512 c2: eba0bb04bb7e0b3955038562c43c59b7 4",
    "gemm Virgo 512x256x512 c4: 1b862fbb14bf1d626c1d1c32df23f34d 8",
    "gemm Virgo 512x512x256 c1: 30bc5611b3d0d7c80a31285de7670d56 2",
    "gemm Virgo 512x512x256 c2: 7005533e9642387b003ae8731d0d883d 4",
    "gemm Virgo 512x512x256 c4: c17e6b6b25f2fa71556ddf952589732b 8",
    "gemm Virgo 512x512x512 c1: 505ee9566cc5fe2707f2e890d1edd686 2",
    "gemm Virgo 512x512x512 c2: 0f4b3631460f1a4339987d11dd8fa99d 4",
    "gemm Virgo 512x512x512 c4: b170054cfe70a6a31f9ac571a6e141c3 8",
    "attention Virgo c1: 4fcd04d16ad44b7191a0458340536b30 64",
    "attention Virgo c2: 631f5d9401d48c9d8b403e1324acfd1f 128",
    "attention Ampere-style c1: 7d54177ab6c5198e58dedaadebbe48ec 64",
    "attention Ampere-style c2: 852838869a368658d1ee8bf0d5554049 128",
    "attention broadcast c2: f8cac68fb44f6c1efbc58f98e4ed5d7b 128",
    "attention interleaved c2: 757d471abfa833ac9c6a936603ee1526 128",
    "attention broadcast c4: 974618060fba257828480b7e5496acd2 256",
    "attention interleaved c4: e424ce143e8c87c83ad09027e610091a 256",
    "split_k dsm c2: 678d0a8d3844814bca3a895f815527b8 66",
    "split_k contiguous dsm c2: 678d0a8d3844814bca3a895f815527b8 66",
    "split_k interleaved dsm c2: e9e7ef5a203a8558361008e01d9b2c3c 128",
    "split_k rotated dsm c2: 985b18251952e9446754d4da031768f1 128",
    "split_k dram c2: 1679041c956824bddf2b0275a64b253e 66",
    "split_k contiguous dram c2: 1679041c956824bddf2b0275a64b253e 66",
    "split_k interleaved dram c2: fcf177a0d2b08b06cca7932de56c05e3 128",
    "split_k rotated dram c2: 20d1b97d6bd124398d05792d827df8b1 128",
    "split_k dsm c4: 57227467d33b6c144793350455d0769b 70",
    "split_k contiguous dsm c4: 57227467d33b6c144793350455d0769b 70",
    "split_k interleaved dsm c4: d4011ee6057e5681a78433408f24a347 256",
    "split_k rotated dsm c4: 74a688bbcfc68743b1c1267f2bf4d0fd 256",
    "split_k dram c4: ff9ed3f00b5dfa376e6374aa07bd1d07 70",
    "split_k contiguous dram c4: ff9ed3f00b5dfa376e6374aa07bd1d07 70",
    "split_k interleaved dram c4: 89591f6c1a70931928e5cd797ddb4ca9 256",
    "split_k rotated dram c4: b42cca530113951e3d1f93311cd1091a 256",
    "split_k dsm c8: 6a6e7f3fe3afa0216c6c991fac793232 78",
    "split_k contiguous dsm c8: 6a6e7f3fe3afa0216c6c991fac793232 78",
    "split_k interleaved dsm c8: b127432b78f491c2b33678e7631227b7 512",
    "split_k rotated dsm c8: 5f9a6a23ac6d13fc6925320f87e77185 512",
    "split_k dram c8: 590e155d31069ecf7e5abde2e3a84e6e 78",
    "split_k contiguous dram c8: 590e155d31069ecf7e5abde2e3a84e6e 78",
    "split_k interleaved dram c8: f6566d8166112e80df63a97f94332a37 512",
    "split_k rotated dram c8: 9339d49168c20d9cb781d42cba2bcd7b 512",
    "hetero parallel: 19f15feb456b6a4263601914221acc79 2",
    "hetero serial large: d16309ce0d6e4810e3e5530adc1c4eb8 1",
    "hetero serial small: 5f86153002d8896478f1e5a9d624dfd8 1",
    "gemm Volta-style 256x256x256 alloc 1,3: 485dbd29686377cc30b47f2974bfac6c 128",
    "gemm Ampere-style 256x256x256 alloc 1,3: 5d28ebfeae1c1d778b4aedb21d428060 128",
    "gemm Hopper-style 256x256x256 alloc 1,3: 536c3a625e3aa4eb236e72004f3c7e21 64",
    "gemm Virgo 256x256x256 alloc 1,3: 89b8b01807a05f253cd5411311a9689a 4",
    "split_k dsm alloc 1,3: 671b40ef84c88a3d63c2a3b38d5feebc 66",
    "split_k contiguous dsm alloc 1,3: 671b40ef84c88a3d63c2a3b38d5feebc 66",
    "split_k interleaved dsm alloc 1,3: 6596342fac86039fc10ccf3627044fe0 128",
    "split_k rotated dsm alloc 1,3: e5efc10fe0671e4aabb709ea9c1fed0b 128",
    "split_k dram alloc 1,3: 2003508c0859a0b5caaa6a051014ae6a 66",
    "split_k contiguous dram alloc 1,3: 2003508c0859a0b5caaa6a051014ae6a 66",
    "split_k interleaved dram alloc 1,3: 529ddc61ce4fab1db554bc95093525c0 128",
    "split_k rotated dram alloc 1,3: 19ca292ba9be06b8fc1b64d75a56b73e 128",
    "attention broadcast alloc 1,3: 7d729b116767becbe3604460fc0350ba 128",
    "attention interleaved alloc 1,3: 36d85da7e752407b4d7db05a9d7b29e4 128",
];

/// One pin row: the kernel's digest and how many distinct programs its
/// warps share.
fn row(label: String, kernel: &Kernel) -> String {
    let mut h = StableHasher::new();
    kernel.stable_hash(&mut h);
    let programs: HashSet<*const Program> = kernel
        .warps
        .iter()
        .map(|w| Arc::as_ptr(&w.program))
        .collect();
    format!("{label}: {} {}", h.finish_hex(), programs.len())
}

fn every_kernel() -> Vec<String> {
    let mut rows = Vec::new();
    for design in DesignKind::all() {
        for m in [256, 512] {
            for n in [256, 512] {
                for k in [256, 512] {
                    for clusters in [1, 2, 4] {
                        let config = GpuConfig::for_design(design).with_clusters(clusters);
                        let shape = GemmShape { m, n, k };
                        rows.push(row(
                            format!("gemm {design} {shape} c{clusters}"),
                            &build_gemm(&config, shape),
                        ));
                    }
                }
            }
        }
    }

    let paper = AttentionShape::paper_default();
    for config in [GpuConfig::virgo(), GpuConfig::ampere_style()] {
        for clusters in [1, 2] {
            let config = config.to_fp32().with_clusters(clusters);
            rows.push(row(
                format!("attention {} c{clusters}", config.design),
                &build_flash_attention(&config, paper),
            ));
        }
    }
    let short = AttentionShape {
        seq_len: 256,
        ..paper
    };
    for clusters in [2, 4] {
        let config = GpuConfig::virgo()
            .to_fp32()
            .with_clusters(clusters)
            .with_dsm_enabled();
        rows.push(row(
            format!("attention broadcast c{clusters}"),
            &build_flash_attention_broadcast(&config, short),
        ));
        rows.push(row(
            format!("attention interleaved c{clusters}"),
            &build_flash_attention_interleaved(&config, short),
        ));
    }

    let split_k = GemmShape {
        m: 256,
        n: 256,
        k: 1024,
    };
    for clusters in [2, 4, 8] {
        for dsm in [true, false] {
            let mut config = GpuConfig::virgo().with_clusters(clusters);
            if dsm {
                config = config.with_dsm_enabled();
            }
            let path = if dsm { "dsm" } else { "dram" };
            rows.push(row(
                format!("split_k {path} c{clusters}"),
                &build_split_k_gemm(&config, split_k),
            ));
            for strategy in [
                PartitionStrategy::Contiguous,
                PartitionStrategy::Interleaved,
                PartitionStrategy::Rotated,
            ] {
                rows.push(row(
                    format!("split_k {strategy} {path} c{clusters}"),
                    &build_split_k_gemm_with_strategy(&config, split_k, strategy),
                ));
            }
        }
    }

    let hetero = GpuConfig::virgo_heterogeneous();
    rows.push(row(
        "hetero parallel".into(),
        &build_heterogeneous_parallel(&hetero),
    ));
    let (large, small) = build_heterogeneous_serial(&hetero);
    rows.push(row("hetero serial large".into(), &large));
    rows.push(row("hetero serial small".into(), &small));

    // Inside an allocation: every builder on clusters {1, 3} of a
    // 4-cluster machine.
    let allocated = |config: GpuConfig| config.with_clusters(4).with_allocation(vec![1, 3]);
    let shape = GemmShape::square(256);
    for design in DesignKind::all() {
        let config = allocated(GpuConfig::for_design(design));
        rows.push(row(
            format!("gemm {design} {shape} alloc 1,3"),
            &build_gemm(&config, shape),
        ));
    }
    for dsm in [true, false] {
        let mut config = allocated(GpuConfig::virgo());
        if dsm {
            config = config.with_dsm_enabled();
        }
        let path = if dsm { "dsm" } else { "dram" };
        rows.push(row(
            format!("split_k {path} alloc 1,3"),
            &build_split_k_gemm(&config, split_k),
        ));
        for strategy in [
            PartitionStrategy::Contiguous,
            PartitionStrategy::Interleaved,
            PartitionStrategy::Rotated,
        ] {
            rows.push(row(
                format!("split_k {strategy} {path} alloc 1,3"),
                &build_split_k_gemm_with_strategy(&config, split_k, strategy),
            ));
        }
    }
    let config = allocated(GpuConfig::virgo().to_fp32().with_dsm_enabled());
    rows.push(row(
        "attention broadcast alloc 1,3".into(),
        &build_flash_attention_broadcast(&config, short),
    ));
    rows.push(row(
        "attention interleaved alloc 1,3".into(),
        &build_flash_attention_interleaved(&config, short),
    ));
    rows
}

#[test]
fn every_kernel_program_and_its_sharing_is_pinned() {
    let actual = every_kernel();
    let drifted: Vec<String> = actual
        .iter()
        .zip(PINS)
        .filter(|(row, pin)| row != *pin)
        .map(|(row, pin)| format!("  pinned {pin}\n  actual {row}"))
        .collect();
    assert!(
        drifted.is_empty() && actual.len() == PINS.len(),
        "{} of {} kernel rows differ from the pins ({} pinned):\n{}",
        drifted.len(),
        actual.len(),
        PINS.len(),
        drifted.join("\n")
    );
}
