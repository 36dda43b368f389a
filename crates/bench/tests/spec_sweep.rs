//! The spec-driven sweep through both transports: a tiny sweep run
//! in-process and through an in-process `wmn-served` daemon must write
//! every panel, each to the same CSV.

use cnlr::Scheme;
use wmn_bench::spec_sweep::{sweep_spec, Panel};
use wmn_bench::FigureSpec;
use wmn_served::{ScenarioSpec, Server, ServerConfig};

fn tiny(flows: f64, scheme: &Scheme, seed: u64) -> ScenarioSpec {
    ScenarioSpec {
        seed,
        scheme: scheme.spec_string(),
        grid_rows: 3,
        grid_cols: 3,
        pitch_m: 180.0,
        flows: flows as usize,
        pps: 4.0,
        payload: 256,
        duration_s: 4.0,
        warmup_s: 1.0,
        ..ScenarioSpec::default()
    }
}

#[test]
fn served_sweep_matches_in_process_on_every_panel() {
    // Both sweeps write their manifests under `./results`: run them in a
    // scratch directory, not in the source tree.
    let dir = std::env::temp_dir().join(format!("wmn_bench_spec_sweep_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    std::env::set_current_dir(&dir).unwrap();

    let figure = FigureSpec {
        id: "tiny",
        title: "Tiny offered-load sweep",
        x_label: "flows",
    };
    let panels = [
        Panel::new(figure, "", "PDR", |r| r.metric("pdr")),
        Panel::new(figure, "hotspot", "hotspot factor", |r| r.metric("hotspot")),
        Panel::new(figure, "goodput", "goodput (kb/s)", |r| {
            r.metric("goodput_kbps")
        }),
        Panel::new(figure, "control", "control tx", |r| r.metric("control_tx")),
    ];
    let xs = [1.0, 3.0];
    let schemes = [Scheme::Flooding, Scheme::Cnlr(Default::default())];
    let csvs = |tables: Vec<(&Panel, wmn_metrics::ResultTable)>| -> Vec<(&str, String)> {
        let tables = tables.into_iter();
        tables.map(|(p, t)| (p.suffix, t.to_csv())).collect()
    };

    let in_process = csvs(sweep_spec(&panels, &xs, &schemes, None, tiny));
    let suffixes: Vec<&str> = in_process.iter().map(|(s, _)| *s).collect();
    assert_eq!(suffixes, ["", "hotspot", "goodput", "control"]);
    assert!(in_process.iter().all(|(_, csv)| !csv.contains("NaN")));

    let socket = dir.join("daemon.sock");
    let server = Server::start(ServerConfig {
        socket: socket.clone(),
        workers: 2,
        queue_cap: 64,
    })
    .expect("daemon starts");
    let socket_str = socket.to_str().unwrap();
    let served = csvs(sweep_spec(&panels, &xs, &schemes, Some(socket_str), tiny));
    server.request_shutdown();
    server.join();

    assert_eq!(served, in_process);
    assert!(dir.join("results/tiny_manifest.json").is_file());
    assert!(dir.join("results/tiny_served_manifest.json").is_file());
    std::fs::remove_dir_all(&dir).unwrap();
}
