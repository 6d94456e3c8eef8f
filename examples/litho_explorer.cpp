// Litho explorer: poke at the lithography substrate directly -- aerial
// images, through-pitch curves, Bossung behaviour, and what OPC does to a
// line array.
//
// Usage: ./build/examples/litho_explorer [linewidth_nm] [pitch_nm]

#include <cstdio>
#include <cstdlib>

#include "litho/bossung.hpp"
#include "litho/focus_response.hpp"
#include "litho/pitch_curve.hpp"
#include "opc/pitch_table.hpp"
#include "report/ascii_plot.hpp"

int main(int argc, char** argv) {
  using namespace sva;
  const Nm linewidth = argc > 1 ? std::atof(argv[1]) : 90.0;
  const Nm pitch = argc > 2 ? std::atof(argv[2]) : 240.0;

  const OpticsConfig optics;
  const LithoProcess process(optics, linewidth, pitch);
  std::printf("process: lambda %.0f nm, NA %.2f, annular sigma "
              "[%.2f, %.2f], resist threshold %.3f\n\n",
              optics.wavelength, optics.na, optics.sigma_inner,
              optics.sigma_outer, process.resist().threshold());

  // --- Aerial image of the chosen grating.
  const auto mask = MaskPattern1D::grating(linewidth, pitch);
  const auto image = process.simulator().image(mask, 0.0);
  Series profile{"intensity", {}, {}};
  for (int i = 0; i <= 80; ++i) {
    const Nm x = pitch * i / 80.0;
    profile.x.push_back(x);
    profile.y.push_back(image.intensity(x));
  }
  PlotOptions opt;
  opt.title = "aerial image over one period (best focus)";
  opt.x_label = "x (nm)";
  opt.y_label = "relative intensity";
  opt.height = 12;
  std::printf("%s\n", render_plot({profile}, opt).c_str());

  const auto cd = process.printed_cd(mask);
  std::printf("printed CD at best focus: %s\n\n",
              cd ? (std::to_string(*cd) + " nm").c_str() : "print failure");

  // --- Through-pitch curve.
  const auto pitches = pitch_sweep(linewidth + 150.0, linewidth + 900.0, 16);
  const auto curve = through_pitch_curve(process, linewidth, pitches);
  Series pitch_series{"printed CD", {}, {}};
  for (const auto& p : curve) {
    pitch_series.x.push_back(p.pitch);
    pitch_series.y.push_back(p.cd);
  }
  opt.title = "through-pitch variation (uncorrected)";
  opt.x_label = "pitch (nm)";
  opt.y_label = "printed CD (nm)";
  std::printf("%s\n", render_plot({pitch_series}, opt).c_str());

  // --- What OPC leaves behind.
  const OpcEngine engine(process, OpcConfig{});
  const auto post = characterize_post_opc_pitch(
      engine, linewidth, {150.0, 250.0, 350.0, 450.0, 600.0});
  std::printf("post-OPC residual through-pitch CDs:\n");
  for (const auto& p : post)
    std::printf("  spacing %4.0f nm: CD %7.2f nm (mask bias %+5.1f nm)\n",
                p.spacing, p.printed_cd, p.mask_bias);
  std::printf("  residual half-range: %.2f nm\n\n",
              post_opc_pitch_half_range(post));

  // --- Bossung behaviour through the calibrated focus response.
  const PrintModel print_model(process, FocusResponseParams{}, 600.0);
  std::printf("Bossung behaviour (printed CD at defocus 0 / 150 / 300 "
              "nm):\n");
  for (const auto& [label, spacing] :
       {std::pair{"dense", 150.0}, std::pair{"interm.", 340.0},
        std::pair{"iso", 600.0}}) {
    std::printf("  %-8s", label);
    for (Nm dz : {0.0, 150.0, 300.0})
      std::printf("  %7.2f", print_model.printed_cd(linewidth, spacing,
                                                    spacing, dz, 1.0));
    std::printf("\n");
  }
  return 0;
}
