//! Host-side demo: compare the double-precision and fixed-point reference
//! simulators on a small 80-20 network and print both rasters plus their
//! ISI similarity (a miniature of the paper's Fig. 3 pipeline).
use izhi_snn::analysis::{isi_cv, IsiHistogram};
use izhi_snn::gen8020::Net8020;
use izhi_snn::simulate::{F64Simulator, FixedSimulator};

fn main() {
    let net = Net8020::with_size(160, 40, 11);
    let mut f = F64Simulator::new(&net.network, 2, 3);
    f.noise_std = Net8020::noise_std(160, 40);
    let rf = f.run(600);
    let mut q = FixedSimulator::new(&net.network, 2, 4);
    q.noise_std = Net8020::noise_std(160, 40);
    let rq = q.run(600);

    println!(
        "double precision: {} spikes, {:.2} Hz, ISI CV {:.2}",
        rf.spikes.len(),
        rf.mean_rate_hz(),
        isi_cv(&rf)
    );
    println!("{}", rf.to_ascii(16, 80));
    println!(
        "fixed point (NPU datapath): {} spikes, {:.2} Hz, ISI CV {:.2}",
        rq.spikes.len(),
        rq.mean_rate_hz(),
        isi_cv(&rq)
    );
    println!("{}", rq.to_ascii(16, 80));
    let hf = IsiHistogram::from_raster(&rf, 10, 300);
    let hq = IsiHistogram::from_raster(&rq, 10, 300);
    println!("ISI histogram similarity: {:.3}", hf.similarity(&hq));
}
