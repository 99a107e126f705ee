//! Dataset persistence: JSON manifest + pcap traces.
//!
//! Layout of a saved dataset directory:
//!
//! ```text
//! <dir>/
//!   manifest.json          # name, viewers, ground truth, stats
//!   traces/viewer_000.pcap # one standard pcap per viewer
//!   ...
//! ```
//!
//! The manifest is written with `wm-json` (ordered keys, byte-exact)
//! and round-trips through [`load_manifest`].

use crate::run::SessionRecord;
use crate::spec::{DatasetSpec, OperationalConditions, ViewerSpec};
use std::path::Path;
use wm_behavior::{AgeGroup, BehaviorAttributes, Gender, PoliticalAlignment, StateOfMind};
use wm_json::Value;
use wm_net::conditions::{ConnectionType, LinkConditions, TimeOfDay};
use wm_player::{Browser, DeviceForm, Os, Profile};

/// Save a fully-run dataset: manifest + per-viewer pcaps.
pub fn save_dataset(dir: &Path, name: &str, records: &[SessionRecord]) -> std::io::Result<()> {
    let traces = dir.join("traces");
    std::fs::create_dir_all(&traces)?;
    let mut viewers = Vec::new();
    for r in records {
        let file = format!("viewer_{:03}.pcap", r.spec.id);
        r.output.trace.write_pcap_file(&traces.join(&file))?;
        viewers.push(viewer_json(
            &r.spec,
            Some(&r.output.choice_string()),
            Some(&file),
        ));
    }
    let manifest = Value::object(vec![
        ("name".into(), Value::from(name)),
        (
            "paper".into(),
            Value::from("White Mirror (SIGCOMM 2019 posters)"),
        ),
        ("viewers".into(), Value::array(viewers)),
    ]);
    std::fs::write(
        dir.join("manifest.json"),
        wm_json::to_pretty_bytes(&manifest),
    )
}

/// Reload a manifest into a spec plus per-viewer ground truth and trace
/// file names.
pub fn load_manifest(dir: &Path) -> std::io::Result<(DatasetSpec, Vec<(String, String)>)> {
    let bytes = std::fs::read(dir.join("manifest.json"))?;
    let doc = wm_json::parse(&bytes)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
    let bad = || std::io::Error::new(std::io::ErrorKind::InvalidData, "manifest schema");
    let name = doc
        .get("name")
        .and_then(Value::as_str)
        .ok_or_else(bad)?
        .to_owned();
    let mut viewers = Vec::new();
    let mut truths = Vec::new();
    for v in doc
        .get("viewers")
        .and_then(Value::as_array)
        .ok_or_else(bad)?
    {
        let (spec, truth, trace) = viewer_from_json(v).ok_or_else(bad)?;
        viewers.push(spec);
        truths.push((truth, trace));
    }
    Ok((DatasetSpec { name, viewers }, truths))
}

fn viewer_json(spec: &ViewerSpec, choices: Option<&str>, trace: Option<&str>) -> Value {
    let mut members = vec![
        ("id".to_string(), Value::from(spec.id as i64)),
        ("seed".to_string(), Value::from(spec.seed as i64)),
        (
            "os".to_string(),
            Value::from(spec.operational.profile.os.label()),
        ),
        (
            "browser".to_string(),
            Value::from(spec.operational.profile.browser.label()),
        ),
        (
            "device".to_string(),
            Value::from(spec.operational.profile.device.label()),
        ),
        (
            "connection".to_string(),
            Value::from(spec.operational.link.connection.label()),
        ),
        (
            "timeOfDay".to_string(),
            Value::from(spec.operational.link.time_of_day.label()),
        ),
        ("age".to_string(), Value::from(spec.behavior.age.label())),
        (
            "gender".to_string(),
            Value::from(spec.behavior.gender.label()),
        ),
        (
            "political".to_string(),
            Value::from(spec.behavior.political.label()),
        ),
        (
            "stateOfMind".to_string(),
            Value::from(spec.behavior.mind.label()),
        ),
    ];
    if let Some(c) = choices {
        members.push(("choices".to_string(), Value::from(c)));
    }
    if let Some(t) = trace {
        members.push(("trace".to_string(), Value::from(t)));
    }
    Value::object(members)
}

fn viewer_from_json(v: &Value) -> Option<(ViewerSpec, String, String)> {
    let os = match v.get("os")?.as_str()? {
        "Windows" => Os::Windows,
        "Ubuntu" => Os::Ubuntu,
        "macOS" => Os::MacOs,
        _ => return None,
    };
    let browser = match v.get("browser")?.as_str()? {
        "Chrome" => Browser::Chrome,
        "Firefox" => Browser::Firefox,
        _ => return None,
    };
    let device = match v.get("device")?.as_str()? {
        "Desktop" => DeviceForm::Desktop,
        "Laptop" => DeviceForm::Laptop,
        _ => return None,
    };
    let connection = match v.get("connection")?.as_str()? {
        "Ethernet" => ConnectionType::Wired,
        "WiFi" => ConnectionType::Wireless,
        _ => return None,
    };
    let tod = match v.get("timeOfDay")?.as_str()? {
        "Morning" => TimeOfDay::Morning,
        "Noon" => TimeOfDay::Noon,
        "Night" => TimeOfDay::Night,
        _ => return None,
    };
    let age = match v.get("age")?.as_str()? {
        "< 20" => AgeGroup::Under20,
        "20-25" => AgeGroup::From20To25,
        "25-30" => AgeGroup::From25To30,
        "> 30" => AgeGroup::Over30,
        _ => return None,
    };
    let gender = match v.get("gender")?.as_str()? {
        "Male" => Gender::Male,
        "Female" => Gender::Female,
        "Undisclosed" => Gender::Undisclosed,
        _ => return None,
    };
    let political = match v.get("political")?.as_str()? {
        "Liberal" => PoliticalAlignment::Liberal,
        "Centrist" => PoliticalAlignment::Centrist,
        "Communist" => PoliticalAlignment::Communist,
        "Undisclosed" => PoliticalAlignment::Undisclosed,
        _ => return None,
    };
    let mind = match v.get("stateOfMind")?.as_str()? {
        "Happy" => StateOfMind::Happy,
        "Stressed" => StateOfMind::Stressed,
        "Sad" => StateOfMind::Sad,
        "Undisclosed" => StateOfMind::Undisclosed,
        _ => return None,
    };
    let spec = ViewerSpec {
        id: v.get("id")?.as_i64()? as u32,
        seed: v.get("seed")?.as_i64()? as u64,
        behavior: BehaviorAttributes {
            age,
            gender,
            political,
            mind,
        },
        operational: OperationalConditions {
            profile: Profile::new(os, browser, device),
            link: LinkConditions::new(connection, tod),
        },
    };
    let truth = v
        .get("choices")
        .and_then(Value::as_str)
        .unwrap_or("")
        .to_owned();
    let trace = v
        .get("trace")
        .and_then(Value::as_str)
        .unwrap_or("")
        .to_owned();
    Some((spec, truth, trace))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::{run_dataset, SimOptions};
    use std::sync::Arc;
    use wm_story::bandersnatch::tiny_film;

    #[test]
    fn save_and_reload_roundtrip() {
        let graph = Arc::new(tiny_film());
        let spec = DatasetSpec::generate("roundtrip", 4, 42);
        let opts = SimOptions {
            media_scale: 2048,
            time_scale: 20,
            ..SimOptions::default()
        };
        let records = run_dataset(&graph, &spec, &opts);

        let dir = std::env::temp_dir().join(format!("wm_dataset_io_test_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        save_dataset(&dir, "roundtrip", &records).unwrap();

        let (loaded, truths) = load_manifest(&dir).unwrap();
        assert_eq!(loaded.name, "roundtrip");
        assert_eq!(loaded.viewers, spec.viewers);
        for (r, (truth, trace_file)) in records.iter().zip(truths.iter()) {
            assert_eq!(*truth, r.output.choice_string());
            // Traces reload byte-identically.
            let trace =
                wm_capture::tap::Trace::read_pcap_file(&dir.join("traces").join(trace_file))
                    .unwrap();
            assert_eq!(trace.to_pcap_bytes(), r.output.trace.to_pcap_bytes());
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn load_rejects_garbage() {
        let dir = std::env::temp_dir().join(format!("wm_dataset_io_bad_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("manifest.json"), b"{not json").unwrap();
        assert!(load_manifest(&dir).is_err());
        std::fs::write(dir.join("manifest.json"), b"{\"name\":\"x\"}").unwrap();
        assert!(load_manifest(&dir).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }
}
