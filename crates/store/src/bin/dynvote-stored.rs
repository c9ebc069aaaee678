//! The node daemon: hosts one site of a live voting cluster.
//!
//! ```text
//! dynvote-stored --site 0 --policy odv \
//!     --peers 0=127.0.0.1:7100,1=127.0.0.1:7101,2=127.0.0.1:7102
//! ```
//!
//! Runs until killed. See `dynvote_store::config` for every flag.

use std::time::Duration;

use dynvote_store::config::Config;

fn main() {
    let config = match Config::parse_args(std::env::args().skip(1)) {
        Ok(config) => config,
        Err(message) => {
            eprintln!("dynvote-stored: {message}");
            eprintln!(
                "usage: dynvote-stored --site N --policy P --peers 0=addr,1=addr,… \
                 [--shards N] [--shard-placement ring:R|paper] [--segments name=i,j;…] [--bridges gw=name;…] \
                 [--log file] [--data-dir dir] [--snapshot-every N] \
                 [--boot-recover-ms N] [--bind-retry-ms N] [--connect-timeout-ms N] \
                 [--read-timeout-ms N] [--backoff-ms N] [--backoff-cap-ms N]"
            );
            std::process::exit(2);
        }
    };
    let service = match dynvote_store::server::start(config) {
        Ok(service) => service,
        Err(error) => {
            eprintln!("dynvote-stored: failed to start: {error}");
            std::process::exit(1);
        }
    };
    println!("listening on {}", service.addr());
    loop {
        std::thread::sleep(Duration::from_secs(3600));
    }
}
