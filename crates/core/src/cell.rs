//! Placement tests of the built-in cell recipes: the access orientation of
//! every configuration in the paper's §3 table, the cross-coupled
//! inverters, β sizing, the 7T read buffer and the CMOS access devices.

mod tests {
    use crate::tech::{AccessConfig, CellKind, CellParams, CellSizing};
    use crate::topology::{CellNodes, CellTopology};
    use tfet_circuit::Circuit;

    fn place(kind: CellKind) -> (Circuit, CellNodes, CellParams) {
        let mut params = CellParams::new(kind);
        params.sizing = CellSizing::with_beta(1.5);
        let mut c = Circuit::new();
        let nodes = CellTopology::builtin(kind).place(&mut c, &params).nodes;
        (c, nodes, params)
    }

    #[test]
    fn six_transistor_cells_have_six_transistors() {
        for kind in [
            CellKind::Cmos6T,
            CellKind::Tfet6T(AccessConfig::InwardP),
            CellKind::TfetAsym6T,
        ] {
            let (c, _, _) = place(kind);
            assert_eq!(c.transistors().len(), 6, "{kind:?}");
        }
    }

    #[test]
    fn seven_t_has_read_port() {
        let (c, nodes, _) = place(CellKind::Tfet7T);
        assert_eq!(c.transistors().len(), 7);
        assert!(nodes.rbl.is_some() && nodes.rwl.is_some());
    }

    #[test]
    fn six_t_has_no_read_port() {
        let (_, nodes, _) = place(CellKind::Cmos6T);
        assert!(nodes.rbl.is_none() && nodes.rwl.is_none());
    }

    #[test]
    fn pulldown_width_follows_beta() {
        let (c, _, params) = place(CellKind::Tfet6T(AccessConfig::InwardP));
        let pd = c
            .transistors()
            .iter()
            .find(|t| t.name == "MPD_L")
            .expect("left pull-down");
        assert!((pd.width_um - params.sizing.w_pulldown_um()).abs() < 1e-12);
        assert!((pd.width_um - 0.15).abs() < 1e-12);
    }

    #[test]
    fn inward_p_access_has_source_at_bitline() {
        let (c, nodes, _) = place(CellKind::Tfet6T(AccessConfig::InwardP));
        let mal = c
            .transistors()
            .iter()
            .find(|t| t.name == "MAL")
            .expect("left access");
        assert_eq!(mal.s, nodes.bl, "inward-p source at bitline");
        assert_eq!(mal.d, nodes.q);
        assert_eq!(mal.g, nodes.wl);
        assert_eq!(mal.model.name(), "ptfet");
    }

    #[test]
    fn outward_n_access_has_source_at_bitline() {
        let (c, nodes, _) = place(CellKind::Tfet6T(AccessConfig::OutwardN));
        let mar = c
            .transistors()
            .iter()
            .find(|t| t.name == "MAR")
            .expect("right access");
        assert_eq!(mar.d, nodes.qb, "outward-n drain at cell node");
        assert_eq!(mar.s, nodes.blb);
        assert_eq!(mar.model.name(), "ntfet");
    }

    #[test]
    fn inward_n_access_has_drain_at_bitline() {
        let (c, nodes, _) = place(CellKind::Tfet6T(AccessConfig::InwardN));
        let mal = c.transistors().iter().find(|t| t.name == "MAL").unwrap();
        assert_eq!(mal.d, nodes.bl);
        assert_eq!(mal.s, nodes.q);
        assert_eq!(mal.model.name(), "ntfet");
    }

    #[test]
    fn outward_p_access_has_drain_at_bitline() {
        let (c, nodes, _) = place(CellKind::Tfet6T(AccessConfig::OutwardP));
        let mal = c.transistors().iter().find(|t| t.name == "MAL").unwrap();
        assert_eq!(mal.d, nodes.bl);
        assert_eq!(mal.s, nodes.q);
        assert_eq!(mal.model.name(), "ptfet");
    }

    #[test]
    fn inverters_are_cross_coupled() {
        let (c, nodes, _) = place(CellKind::Cmos6T);
        let pu_l = c.transistors().iter().find(|t| t.name == "MPU_L").unwrap();
        assert_eq!(pu_l.g, nodes.qb, "left inverter input is qb");
        assert_eq!(pu_l.d, nodes.q, "left inverter output is q");
        assert_eq!(pu_l.s, nodes.vdd, "pull-up source at the supply rail");
        let pd_r = c.transistors().iter().find(|t| t.name == "MPD_R").unwrap();
        assert_eq!(pd_r.g, nodes.q);
        assert_eq!(pd_r.d, nodes.qb);
        assert_eq!(pd_r.s, nodes.vss, "pull-down source at the ground rail");
    }

    #[test]
    fn seven_t_read_buffer_wiring() {
        let (c, nodes, _) = place(CellKind::Tfet7T);
        let rd = c.transistors().iter().find(|t| t.name == "MRD").unwrap();
        assert_eq!(rd.g, nodes.qb, "read buffer gated by qb");
        assert_eq!(rd.d, nodes.rbl.unwrap());
        assert_eq!(rd.s, nodes.rwl.unwrap());
    }

    #[test]
    fn cmos_access_uses_nmos() {
        let (c, _, _) = place(CellKind::Cmos6T);
        let mal = c.transistors().iter().find(|t| t.name == "MAL").unwrap();
        assert_eq!(mal.model.name(), "nmos");
    }
}
